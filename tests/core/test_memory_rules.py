"""Characterization tests for the memory manager's shared rules: entry
eviction for tenant quotas and partial eviction, the unbind choice
between retaining a locality cache and swapping out, and device release
for a retained cache whose device has failed.

Each scenario pins exact counters and residency, so a change to one of
these shared rules cannot move a result unnoticed."""

from repro.core import Frontend, RuntimeConfig
from repro.qos import Tenant
from repro.simcuda import FatBinary, GPUSpec, KernelDescriptor, TESLA_C2050

from tests.core.conftest import Harness, MIB


def _kernel(name, seconds, spec=TESLA_C2050):
    return KernelDescriptor(name=name, flops=seconds * spec.effective_gflops * 1e9)


def _open(h, name, tenant=None, spec=TESLA_C2050, kernel_s=0.02):
    """Connect and register one kernel; returns (frontend, kernel)."""
    fe = Frontend(h.env, h.runtime.listener, name=name, tenant=tenant)
    yield from fe.open()
    k = _kernel(f"{name}-k", kernel_s, spec)
    handle = yield from fe.register_fat_binary(FatBinary())
    yield from fe.register_function(handle, k)
    return fe, k


def _context(h, owner):
    return next(c for c in h.runtime.dispatcher.contexts if c.owner == owner)


def _sleep_until(h, t):
    if h.env.now < t:
        yield h.env.timeout(t - h.env.now)


# ----------------------------------------------------------------------
# (a) tenant-quota eviction across the requester and an idle sibling
# ----------------------------------------------------------------------
def test_quota_eviction_takes_sibling_and_own_entries_in_lru_order():
    h = Harness(config=RuntimeConfig(vgpus_per_device=2, qos_enabled=True))
    h.runtime.qos.register(Tenant("t", device_quota_bytes=256 * MIB))
    seen = {}
    ptrs = {}

    def sibling():
        fe, k = yield from _open(h, "sib", tenant="t")
        s1 = yield from fe.cuda_malloc(64 * MIB)
        s2 = yield from fe.cuda_malloc(64 * MIB)
        ptrs.update(s1=s1, s2=s2)
        yield from fe.launch_kernel(k, [s1])
        yield from _sleep_until(h, 0.3)
        yield from fe.launch_kernel(k, [s2])
        # Writes s2 back: s2 is clean, s1 stays dirty, journal kept.
        yield from fe.cuda_memcpy_d2h(s2, 64 * MIB)
        seen["sib_journal_before"] = len(_context(h, "sib").replay_journal)
        yield h.env.timeout(5.0)  # idle: an eligible quota victim
        yield from fe.cuda_thread_exit()

    def requester():
        yield h.env.timeout(0.1)
        fe, k = yield from _open(h, "req", tenant="t")
        r1 = yield from fe.cuda_malloc(64 * MIB)
        r2 = yield from fe.cuda_malloc(64 * MIB)
        r3 = yield from fe.cuda_malloc(128 * MIB)
        ptrs.update(r1=r1, r2=r2, r3=r3)
        yield from fe.launch_kernel(k, [r1])
        yield from _sleep_until(h, 0.4)
        yield from fe.launch_kernel(k, [r2])
        yield from _sleep_until(h, 1.0)
        inter_before = h.stats.swaps_inter
        # 256 MiB resident + 128 MiB incoming: 128 MiB over quota.
        yield from fe.launch_kernel(k, [r3])
        sib, req = _context(h, "sib"), _context(h, "req")
        pt = h.memory.page_table
        seen.update(
            resident={
                name: pt.lookup(sib if name[0] == "s" else req, vptr).is_allocated
                for name, vptr in ptrs.items()
            },
            quota_evictions=h.stats.quota_evictions,
            quota_eviction_bytes=h.stats.quota_eviction_bytes,
            swaps_inter_delta=h.stats.swaps_inter - inter_before,
            sib_journal_after=len(sib.replay_journal),
            sib_swaps_suffered=sib.swaps_suffered,
        )
        yield from fe.cuda_thread_exit()

    h.spawn(sibling())
    h.spawn(requester())
    h.run()
    # LRU across both contexts: s1 (t~0), then r1 (t~0.1); s2 and r2
    # were used later and stay resident.
    assert seen["resident"] == {
        "s1": False, "r1": False, "s2": True, "r2": True, "r3": True,
    }
    assert seen["quota_evictions"] == 1
    assert seen["quota_eviction_bytes"] == 128 * MIB
    # Evicting s1 wrote back the sibling's last dirty entry.
    assert seen["sib_journal_before"] == 2
    assert seen["sib_journal_after"] == 0
    # Quota eviction is not inter-application swapping.
    assert seen["swaps_inter_delta"] == 0
    assert seen["sib_swaps_suffered"] == 0


# ----------------------------------------------------------------------
# (b) partial eviction spanning two victims
# ----------------------------------------------------------------------
GPU_1G = GPUSpec(
    name="OneGiB", sm_count=14, cores_per_sm=32, clock_ghz=1.15,
    memory_bytes=1024 * MIB,
)
# 1024 MiB - 3 vGPU reservations of 64 MiB = 832 MiB usable.


def test_partial_eviction_spanning_two_victims_counts_each_once():
    h = Harness(
        specs=[GPU_1G],
        config=RuntimeConfig(vgpus_per_device=3, eviction_mode="partial"),
    )
    seen = {}

    def victim(name, delay):
        yield h.env.timeout(delay)
        fe, k = yield from _open(h, name, spec=GPU_1G)
        p = yield from fe.cuda_malloc(150 * MIB)
        yield from fe.cuda_memcpy_h2d(p, 150 * MIB)
        yield from fe.launch_kernel(k, [p])
        yield from _sleep_until(h, 3.0)
        yield from fe.cuda_thread_exit()

    def requester():
        yield h.env.timeout(0.5)
        fe, k = yield from _open(h, "req", spec=GPU_1G)
        a = yield from fe.cuda_malloc(300 * MIB)
        b = yield from fe.cuda_malloc(300 * MIB)
        yield from fe.launch_kernel(k, [a])
        inter_before = h.stats.swaps_inter
        # 232 MiB free in two holes: b needs one 300 MiB block, which
        # only exists once both victims' adjacent entries are gone.
        yield from fe.launch_kernel(k, [a, b])
        seen.update(
            swaps_inter=h.stats.swaps_inter - inter_before,
            suffered={n: _context(h, n).swaps_suffered for n in ("v1", "v2")},
            bound={n: _context(h, n).bound for n in ("v1", "v2")},
            evictions=h.stats.evictions_partial,
            freed=h.stats.eviction_bytes_freed,
        )
        yield from fe.cuda_thread_exit()

    h.spawn(victim("v1", 0.0))
    h.spawn(victim("v2", 0.1))
    h.spawn(requester())
    h.run()
    assert seen["swaps_inter"] == 2
    assert seen["suffered"] == {"v1": 1, "v2": 1}
    assert seen["bound"] == {"v1": True, "v2": True}
    assert seen["evictions"] == 1
    assert seen["freed"] == 300 * MIB


# ----------------------------------------------------------------------
# (c) quantum expiry retains the locality cache
# ----------------------------------------------------------------------
def test_quantum_expiry_under_locality_binding_retains_the_cache():
    h = Harness(config=RuntimeConfig(
        vgpus_per_device=1, vgpu_quantum_s=0.2, locality_binding=True,
    ))
    seen = {}

    def first():
        fe, k = yield from _open(h, "first", kernel_s=0.3)
        p = yield from fe.cuda_malloc(64 * MIB)
        yield from fe.cuda_memcpy_h2d(p, 64 * MIB)
        yield from fe.launch_kernel(k, [p])
        yield h.env.timeout(0.5)  # preempted here; "second" runs
        ctx = _context(h, "first")
        seen["bound_while_away"] = ctx.bound
        seen["cache_retained"] = ctx.cache_vgpu is h.scheduler.vgpus[0]
        seen["journal_while_away"] = len(ctx.replay_journal)
        yield from fe.launch_kernel(k, [p])
        yield from fe.cuda_thread_exit()

    def second():
        yield h.env.timeout(0.2)  # queues behind first's running kernel
        fe, k = yield from _open(h, "second", kernel_s=0.05)
        p = yield from fe.cuda_malloc(32 * MIB)
        yield from fe.launch_kernel(k, [p])
        yield from fe.cuda_thread_exit()

    h.spawn(first())
    h.spawn(second())
    h.run()
    assert h.stats.preemptions == 1
    assert seen == {
        "bound_while_away": False,
        "cache_retained": True,
        "journal_while_away": 0,
    }
    assert h.stats.locality_hits == 1
    assert h.stats.locality_bytes_avoided == 64 * MIB
    # Only the first launch faulted the buffer in.
    assert h.stats.swap_bytes_in == 64 * MIB


# ----------------------------------------------------------------------
# (d) free and exit with a retained cache on a failed device
# ----------------------------------------------------------------------
def test_free_and_exit_of_retained_cache_on_failed_device():
    h = Harness(config=RuntimeConfig(
        vgpus_per_device=1, locality_binding=True, unbind_on_cpu_phase_s=0.05,
    ))
    device_frees = []
    notifies = []
    real_notify = h.memory.memory_freed.notify_all

    def counting_notify():
        notifies.append(h.env.now)
        real_notify()

    h.memory.memory_freed.notify_all = counting_notify
    seen = {}

    def owner():
        fe, k = yield from _open(h, "owner", kernel_s=0.2)
        a = yield from fe.cuda_malloc(64 * MIB)
        b = yield from fe.cuda_malloc(64 * MIB)
        yield from fe.launch_kernel(k, [a, b])
        vgpu = seen["vgpu"] = _context(h, "owner").vgpu
        real_free = vgpu.free

        def counting_free(ptr):
            device_frees.append(h.env.now)
            return (yield from real_free(ptr))

        vgpu.free = counting_free
        yield h.env.timeout(2.0)  # reaped with a retained cache
        ctx = _context(h, "owner")
        seen["cached_on_failed"] = (
            ctx.cache_vgpu is vgpu and vgpu.device.failed and not ctx.bound
        )
        frees_before, notifies_before = len(device_frees), len(notifies)
        yield from fe.cuda_free(a)
        seen["free_device_ops"] = len(device_frees) - frees_before
        seen["free_notifies"] = len(notifies) - notifies_before
        yield from fe.cuda_thread_exit()  # b is released by exit
        seen["exit_device_ops"] = len(device_frees) - frees_before
        seen["exit_notifies"] = len(notifies) - notifies_before - 1

    def waiter():
        yield h.env.timeout(0.4)
        fe, k = yield from _open(h, "waiter", kernel_s=0.1)
        p = yield from fe.cuda_malloc(16 * MIB)
        yield from fe.launch_kernel(k, [p])
        yield from fe.cuda_thread_exit()

    def failure():
        yield h.env.timeout(1.0)
        h.runtime.fail_device(seen["vgpu"].device)

    h.spawn(owner())
    h.spawn(waiter())
    h.spawn(failure())
    h.run()
    del seen["vgpu"]
    assert seen == {
        "cached_on_failed": True,
        "free_device_ops": 0,
        "free_notifies": 1,
        "exit_device_ops": 0,
        "exit_notifies": 0,
    }
    assert h.memory.page_table.contexts() == []
