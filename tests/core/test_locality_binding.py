"""Locality-aware dynamic binding (§4.4): transfer-cost model, retained
residency caches, cost-gated migration, and the ``locality`` policy."""

from types import SimpleNamespace

import pytest

from repro.core import RuntimeConfig
from repro.core.memory.costmodel import TransferCostModel
from repro.core.policies import LocalityPolicy, PolicyContext, make_policy
from repro.simcuda import FatBinary, GPUSpec, KernelDescriptor, TESLA_C2050
from repro.simcuda import timing

from tests.core.conftest import Harness, MIB

SMALL_GPU = GPUSpec(
    name="LocGPU", sm_count=14, cores_per_sm=32, clock_ghz=1.15,
    memory_bytes=512 * MIB,
)


# ---------------------------------------------------------------------------
# cost-model units (pure fakes: no simulation)
# ---------------------------------------------------------------------------

def _fake_device(device_id, gflops=1000.0, free=4096 * MIB):
    return SimpleNamespace(
        device_id=device_id,
        failed=False,
        spec=SimpleNamespace(effective_gflops=gflops, pcie_gbps=5.0),
        allocator=SimpleNamespace(free_bytes=free),
    )


def _fake_vgpu(device, index=0):
    return SimpleNamespace(
        device=device, index=index, name=f"gpu{device.device_id}-vgpu{index}"
    )


def _fake_entry(size, device_id=None, fault=0, dirty=0):
    return SimpleNamespace(
        size=size,
        is_allocated=device_id is not None,
        device_id=device_id,
        virtual_ptr=0x1000,
        fault_bytes=lambda: fault,
        dirty_bytes=lambda: dirty,
        valid_bytes=lambda: size - fault if device_id is not None else 0,
    )


def _model(entries, ctx):
    page_table = SimpleNamespace(
        entries_for=lambda c: entries, contexts=lambda: [ctx]
    )
    swap = SimpleNamespace(host_memcpy_bps=8e9)
    scheduler = SimpleNamespace(active_per_device=lambda: {})
    return TransferCostModel(page_table, swap, scheduler)


def test_bind_cost_prefers_device_holding_the_cache():
    dev0, dev1 = _fake_device(0), _fake_device(1)
    v0, v1 = _fake_vgpu(dev0), _fake_vgpu(dev1)
    ctx = SimpleNamespace(
        last_launch_vptrs=[], cache_vgpu=v0, vgpu=None,
        estimated_gpu_seconds=None, gpu_seconds_used=0.0,
    )
    entries = [_fake_entry(64 * MIB, device_id=0)]
    model = _model(entries, ctx)
    cost_home = model.bind_cost(ctx, v0)
    cost_away = model.bind_cost(ctx, v1)
    assert cost_home == 0.0  # fully resident, no queue, on affinity
    # Away: full fault-in over min(PCIe, swap) bandwidth + hysteresis.
    expected = (
        timing.COPY_LATENCY_SECONDS + 64 * MIB / 5e9 + 0.02
    )
    assert cost_away == pytest.approx(expected)


def test_bind_cost_ignores_residency_owned_by_another_vgpu():
    """Resident bytes cached on vGPU X cannot be revived by binding to
    vGPU Y of the *same* device: the pointers belong to X's context."""
    dev0 = _fake_device(0)
    v0a, v0b = _fake_vgpu(dev0, 0), _fake_vgpu(dev0, 1)
    ctx = SimpleNamespace(
        last_launch_vptrs=[], cache_vgpu=v0a, vgpu=None,
        estimated_gpu_seconds=None, gpu_seconds_used=0.0,
    )
    model = _model([_fake_entry(64 * MIB, device_id=0)], ctx)
    assert model.bind_cost(ctx, v0a) == 0.0
    assert model.bind_cost(ctx, v0b) > 0.0


def test_bind_cost_charges_queue_wait_from_ewma():
    dev0, dev1 = _fake_device(0), _fake_device(1)
    v0, v1 = _fake_vgpu(dev0), _fake_vgpu(dev1)
    ctx = SimpleNamespace(
        last_launch_vptrs=[], cache_vgpu=None, vgpu=None,
        estimated_gpu_seconds=None, gpu_seconds_used=0.0,
    )
    model = _model([], ctx)
    model.observe_kernel(100e9)  # 0.1 s on a 1000-GFLOPS device
    busy = {0: 3}
    idle = {}
    cost_busy = model.bind_cost(ctx, v0, busy)
    cost_idle = model.bind_cost(ctx, v1, idle)
    assert cost_busy == pytest.approx(4 * 0.1)
    assert cost_idle == pytest.approx(1 * 0.1)


def test_ewma_converges_toward_recent_kernels():
    model = _model([], SimpleNamespace())
    model.observe_kernel(100e9)
    assert model._ewma_flops == 100e9
    for _ in range(50):
        model.observe_kernel(200e9)
    assert model._ewma_flops == pytest.approx(200e9, rel=1e-3)
    model.observe_kernel(0)  # ignored
    assert model._ewma_flops == pytest.approx(200e9, rel=1e-3)


def test_migration_gate_weighs_gain_against_transfer_cost():
    slow = _fake_device(0, gflops=100.0)
    fast = _fake_device(1, gflops=1000.0)
    barely = _fake_device(2, gflops=101.0)
    ctx = SimpleNamespace(
        last_launch_vptrs=[], cache_vgpu=None, vgpu=_fake_vgpu(slow),
        estimated_gpu_seconds=10.0, gpu_seconds_used=0.0,
    )
    entries = [_fake_entry(512 * MIB, device_id=0, dirty=256 * MIB)]
    model = _model(entries, ctx)
    # 10 s of work: ~9 s saved on the 10x device, far above the move cost.
    assert model.migration_worthwhile(ctx, fast)
    # ~0.1 s saved on the 1.01x device does not pay for moving 512 MiB.
    assert not model.migration_worthwhile(ctx, barely)
    # Unbound contexts have nothing to move.
    ctx.vgpu = None
    assert model.migration_worthwhile(ctx, barely)


def test_evict_cost_discounts_stale_clean_entries():
    dev0 = _fake_device(0)
    ctx = SimpleNamespace(vgpu=_fake_vgpu(dev0), cache_vgpu=None)
    model = _model([], ctx)
    clean = SimpleNamespace(
        dirty_bytes=lambda: 0, valid_bytes=lambda: 64 * MIB, last_use=0.0
    )
    dirty = SimpleNamespace(
        dirty_bytes=lambda: 64 * MIB, valid_bytes=lambda: 64 * MIB, last_use=0.0
    )
    # Dirty entries always cost more (write-back now + re-fault later).
    assert model.evict_cost(ctx, dirty, now=1.0) > model.evict_cost(
        ctx, clean, now=1.0
    )
    # The re-fault leg decays with staleness: an old clean entry is
    # cheaper to evict than a hot one.
    assert model.evict_cost(ctx, clean, now=100.0) < model.evict_cost(
        ctx, clean, now=0.0
    )


def test_cost_aware_eviction_uses_wired_cost_fn():
    h = Harness(
        config=RuntimeConfig(
            locality_binding=True,
            eviction_mode="partial",
            eviction_policy="cost_aware",
        )
    )
    memory = h.runtime.memory
    memory.cost_model = SimpleNamespace(
        evict_cost=lambda ctx, pte, now: pte.modeled
    )
    cheap = ("ctx-a", SimpleNamespace(seq=1, modeled=0.1))
    costly = ("ctx-b", SimpleNamespace(seq=0, modeled=9.0))
    tie = ("ctx-c", SimpleNamespace(seq=2, modeled=0.1))
    assert memory._eviction_order([tie, costly, cheap]) == [cheap, tie, costly]


# ---------------------------------------------------------------------------
# locality policy: ordering + starvation guard (unit level)
# ---------------------------------------------------------------------------

def _waiter(context_id):
    return SimpleNamespace(context_id=context_id, locality_skips=0)


def _locality_context(bind_cost, idle):
    """A fake PolicyContext: a cost model scoring with ``bind_cost`` and
    ``idle`` as the idle vGPUs."""
    model = SimpleNamespace(
        scheduler=SimpleNamespace(active_per_device=lambda: {}),
        bind_cost=bind_cost,
    )
    return PolicyContext(
        SimpleNamespace(now=0.0), cost_model=model, idle_vgpus=lambda: list(idle)
    )


def test_locality_policy_unwired_degrades_to_fcfs():
    policy = make_policy("locality")
    assert isinstance(policy, LocalityPolicy)
    a, b = _waiter(1), _waiter(2)
    pc = PolicyContext(SimpleNamespace(now=0.0))
    assert policy.pick_next([a, b], pc) is a
    assert policy.pick_next([], pc) is None


def test_locality_policy_prefers_cheapest_waiter():
    policy = LocalityPolicy()
    dev0 = _fake_device(0)
    v0 = _fake_vgpu(dev0)
    costs = {1: 5.0, 2: 0.5}
    pc = _locality_context(lambda ctx, v, active: costs[ctx.context_id], [v0])
    a, b = _waiter(1), _waiter(2)
    assert policy.pick_next([a, b], pc) is b
    # No idle vGPU to score against: FCFS.
    pc.idle_vgpus = lambda: []
    assert policy.pick_next([a, b], pc) is a


def test_locality_policy_never_starves_the_front_waiter():
    """Regression (satellite): a stream of better-locality youngsters
    must not pass over the oldest waiter indefinitely."""
    policy = LocalityPolicy()
    dev0 = _fake_device(0)
    v0 = _fake_vgpu(dev0)
    old = _waiter(1)
    # Every younger waiter always models cheaper than the old one.
    pc = _locality_context(
        lambda ctx, v, active: 0.0 if ctx.context_id != 1 else 9.0, [v0]
    )
    served = []
    next_id = 2
    waiting = [old, _waiter(next_id)]
    for _round in range(2 * policy.max_skips + 2):
        chosen = policy.pick_next(list(waiting), pc)
        served.append(chosen)
        waiting.remove(chosen)
        if chosen is old:
            break
        next_id += 1
        waiting.append(_waiter(next_id))  # fresh better-locality arrival
    assert old in served
    # Served within max_skips pass-overs, and the counter reset after.
    assert len(served) <= policy.max_skips + 1
    assert old.locality_skips == 0


# ---------------------------------------------------------------------------
# integration: retention, reconcile, reclaim (full runtime)
# ---------------------------------------------------------------------------

def _kernel(name, seconds, spec=TESLA_C2050):
    return KernelDescriptor(
        name=name, flops=seconds * spec.effective_gflops * 1e9
    )


def _app(h, name, alloc_mib, kernel_s, cpu_s, rounds=2, start_delay=0.0,
         spec=TESLA_C2050, done=None):
    """malloc → h2d → rounds x (kernel, cpu phase) → exit."""

    def gen():
        if start_delay:
            yield h.env.timeout(start_delay)
        fe = h.frontend(name)
        yield from fe.open()
        fatbin = FatBinary()
        k = _kernel(f"{name}-k", kernel_s, spec)
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        ptr = yield from fe.cuda_malloc(alloc_mib * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, alloc_mib * MIB)
        for _ in range(rounds):
            yield from fe.launch_kernel(k, [ptr])
            if cpu_s:
                yield h.env.timeout(cpu_s)
        yield from fe.cuda_thread_exit()
        if done is not None:
            done.append(name)

    return gen()


def _assert_no_leak(h):
    """Only the per-vGPU CUDA-context reservations remain allocated."""
    per_device = h.runtime.config.vgpus_per_device
    for device in h.runtime.driver.devices:
        reserved = device.spec.context_reservation_bytes * per_device
        assert device.allocator.used_bytes == reserved
        assert device.allocator.allocation_count == per_device


def _locality_config(**kw):
    base = dict(
        vgpus_per_device=1,
        locality_binding=True,
        unbind_on_cpu_phase_s=0.05,
    )
    base.update(kw)
    return RuntimeConfig(**base)


def test_same_vgpu_rebind_is_a_locality_hit():
    """Unbind-with-retain + rebind to the caching vGPU skips the
    fault-in; the identical run without locality pays a full swap-in."""

    def run(locality):
        cfg = _locality_config() if locality else RuntimeConfig(
            vgpus_per_device=1, unbind_on_cpu_phase_s=0.05
        )
        h = Harness(config=cfg)
        done = []
        # A launches, sits in a long CPU phase (reaped), rebinds after.
        h.spawn(_app(h, "A", alloc_mib=64, kernel_s=0.2, cpu_s=1.0, done=done))
        # B queues during A's CPU phase, triggering the reaper.
        h.spawn(_app(h, "B", alloc_mib=64, kernel_s=0.2, cpu_s=0.0,
                     rounds=1, start_delay=0.4, done=done))
        h.run()
        assert sorted(done) == ["A", "B"]
        return h.stats

    with_loc = run(locality=True)
    without = run(locality=False)
    assert with_loc.locality_hits >= 1
    assert with_loc.locality_bytes_avoided >= 64 * MIB
    assert without.locality_hits == 0
    assert with_loc.swap_bytes_in < without.swap_bytes_in


def test_stale_cache_dropped_on_foreign_vgpu_and_memory_recovered():
    """A rebinding that lands on a different vGPU cannot revive the
    cache: it is dropped (freeing the original device) and the context
    completes via the swap copy — nothing leaks."""
    h = Harness(
        specs=[TESLA_C2050, TESLA_C2050],
        config=_locality_config(),
    )
    done = []
    # A binds gpu0 first, gets reaped with a retained cache there.
    h.spawn(_app(h, "A", alloc_mib=64, kernel_s=0.2, cpu_s=1.2, done=done))
    # B occupies gpu1 with a long kernel.
    h.spawn(_app(h, "B", alloc_mib=32, kernel_s=2.5, cpu_s=0.0,
                 rounds=1, start_delay=0.1, done=done))
    # C queues during A's CPU phase (reaper unbinds A), then holds gpu0
    # long enough that A's rebind must land on gpu1.
    h.spawn(_app(h, "C", alloc_mib=32, kernel_s=2.5, cpu_s=0.0,
                 rounds=1, start_delay=0.5, done=done))
    h.run()
    assert sorted(done) == ["A", "B", "C"]
    _assert_no_leak(h)


def test_cached_residency_reclaimed_under_memory_pressure():
    """Another context's launch that cannot fit reclaims retained caches
    on the device before falling through to eviction."""
    h = Harness(specs=[SMALL_GPU], config=_locality_config())
    done = []
    # A fills most of the 512 MiB device, then lingers on the CPU.
    h.spawn(_app(h, "A", alloc_mib=300, kernel_s=0.2, cpu_s=2.0,
                 spec=SMALL_GPU, done=done))
    # B needs 300 MiB itself: A's retained cache must be reclaimed.
    h.spawn(_app(h, "B", alloc_mib=300, kernel_s=0.2, cpu_s=0.0,
                 rounds=1, start_delay=0.5, spec=SMALL_GPU, done=done))
    h.run()
    assert sorted(done) == ["A", "B"]
    assert h.stats.locality_reclaims >= 1
    assert h.stats.locality_reclaim_bytes >= 300 * MIB
    _assert_no_leak(h)


def test_exit_with_retained_cache_releases_device_memory():
    """A context that exits while its cache is still resident must not
    leak device memory."""
    h = Harness(config=_locality_config())
    done = []
    h.spawn(_app(h, "A", alloc_mib=64, kernel_s=0.2, cpu_s=1.0,
                 rounds=1, done=done))  # exits straight from the CPU phase
    h.spawn(_app(h, "B", alloc_mib=32, kernel_s=0.3, cpu_s=0.0,
                 rounds=1, start_delay=0.4, done=done))
    h.run()
    assert sorted(done) == ["A", "B"]
    _assert_no_leak(h)


def test_locality_policy_end_to_end_completes_all_jobs():
    """No-hang/no-starvation check: a churning mix under the locality
    policy with retention on runs every job to completion."""
    h = Harness(
        specs=[TESLA_C2050, TESLA_C2050],
        config=_locality_config(policy="locality"),
    )
    done = []
    for i in range(6):
        h.spawn(_app(h, f"j{i}", alloc_mib=48, kernel_s=0.15, cpu_s=0.3,
                     rounds=3, start_delay=0.05 * i, done=done))
    h.run()
    assert sorted(done) == sorted(f"j{i}" for i in range(6))
    assert h.stats.locality_hits >= 1


def test_binding_decision_traced_with_candidate_scores():
    h = Harness(
        specs=[TESLA_C2050, TESLA_C2050],
        config=_locality_config(tracing=True),
    )
    done = []
    h.spawn(_app(h, "A", alloc_mib=32, kernel_s=0.2, cpu_s=0.2, done=done))
    h.run()
    assert done == ["A"]
    decisions = [
        e for e in h.runtime.obs.events if e.kind == "BindingDecision"
    ]
    assert decisions
    first = decisions[0]
    assert first.context == "A"
    assert len(first.scores) == 2  # both devices were scored
    assert first.chosen in {name for name, _cost in first.scores}
    assert all(cost >= 0.0 for _name, cost in first.scores)


# ---------------------------------------------------------------------------
# default-off: the model observes but never influences
# ---------------------------------------------------------------------------

def test_default_config_leaves_decisions_unwired():
    h = Harness()
    assert h.runtime.memory.cost_model is not None  # EWMA stays warm
    assert h.scheduler.cost_model is None
    assert h.runtime.migration.cost_model is None


def test_locality_binding_wires_the_full_decision_surface():
    h = Harness(config=RuntimeConfig(locality_binding=True))
    model = h.runtime.cost_model
    assert h.scheduler.cost_model is model
    assert h.runtime.migration.cost_model is model


def test_config_validation():
    assert RuntimeConfig(policy="locality").policy == "locality"
    assert "locality" in __import__("repro.core.policies", fromlist=["POLICY_NAMES"]).POLICY_NAMES
