"""Device-wide partial eviction (RuntimeConfig.eviction_mode="partial").

Instead of swapping out a whole victim context, the eviction loop frees
only the bytes the faulting launch needs, in eviction-policy order, and
victims keep their vGPU.  Also covers the Table 1 "Swap memory cannot be
allocated" path end to end.
"""

import pytest

from repro.core import RuntimeConfig
from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.obs import Eviction
from repro.simcuda import GPUSpec, KernelDescriptor

from tests.core.conftest import Harness, MIB

SMALL_GPU = GPUSpec(
    name="SmallGPU",
    sm_count=14,
    cores_per_sm=32,
    clock_ghz=1.15,
    memory_bytes=512 * MIB,
)
# 512 MiB - 2 vGPU reservations of 64 MiB = 384 MiB usable.


def kernel(name="k", seconds=0.02):
    return KernelDescriptor(
        name=name, flops=seconds * SMALL_GPU.effective_gflops * 1e9
    )


def _hoarder(h, name, done, buf_mib=100, bufs=3, hold_s=4.0):
    """Allocates several buffers, launches on them, then idles (an
    eligible victim), then launches again (faulting evicted data back)."""

    def app():
        fe = h.frontend(name)
        yield from fe.open()
        k = kernel(f"{name}-k")
        ptrs = []
        for _ in range(bufs):
            p = yield from fe.cuda_malloc(buf_mib * MIB)
            yield from fe.cuda_memcpy_h2d(p, buf_mib * MIB)
            ptrs.append(p)
        yield from fe.launch_kernel(k, ptrs)
        yield h.env.timeout(hold_s)
        yield from fe.launch_kernel(k, ptrs)
        yield from fe.cuda_thread_exit()
        done[name] = h.env.now

    return app()


def _latecomer(h, name, done, buf_mib=100, delay_s=1.0):
    def app():
        fe = h.frontend(name)
        yield from fe.open()
        yield h.env.timeout(delay_s)
        k = kernel(f"{name}-k")
        p = yield from fe.cuda_malloc(buf_mib * MIB)
        yield from fe.cuda_memcpy_h2d(p, buf_mib * MIB)
        yield from fe.launch_kernel(k, [p])
        yield from fe.cuda_thread_exit()
        done[name] = h.env.now

    return app()


def _run(mode, policy="lru", tracing=False):
    h = Harness(
        specs=[SMALL_GPU],
        config=RuntimeConfig(
            vgpus_per_device=2,
            eviction_mode=mode,
            eviction_policy=policy,
            tracing=tracing,
        ),
    )
    done = {}
    h.spawn(_hoarder(h, "hoarder", done))
    h.spawn(_latecomer(h, "late", done))
    h.run()
    assert set(done) == {"hoarder", "late"}
    return h


def test_partial_eviction_frees_only_required_bytes():
    h = _run("partial")
    # The latecomer needed 100 MiB with 84 MiB free: evicting one of the
    # hoarder's three 100 MiB entries suffices — not all 300 MiB.
    assert h.stats.evictions_partial >= 1
    assert h.stats.eviction_bytes_freed < 300 * MIB
    assert h.stats.swaps_inter >= 1


def test_partial_eviction_victim_stays_bound():
    """Whole-context eviction unbinds the victim; partial eviction takes
    entries, not the vGPU, so the victim never rebinds."""
    partial = _run("partial")
    context = _run("context")
    assert partial.stats.unbindings < context.stats.unbindings


def test_partial_eviction_moves_fewer_bytes_than_whole_context():
    partial = _run("partial")
    context = _run("context")
    partial_bytes = partial.stats.swap_bytes_out + partial.stats.swap_bytes_in
    context_bytes = context.stats.swap_bytes_out + context.stats.swap_bytes_in
    assert partial_bytes < context_bytes


@pytest.mark.parametrize("policy", ["lru", "cost_aware"])
def test_every_policy_completes_the_workload(policy):
    h = _run("partial", policy=policy)
    assert h.stats.evictions_partial >= 1


def test_eviction_trace_event_carries_policy_and_bytes():
    h = _run("partial", policy="cost_aware", tracing=True)
    events = h.runtime.obs.events_of(Eviction)
    assert events, "partial eviction must emit an Eviction event"
    ev = events[0]
    assert ev.policy == "cost_aware"
    assert ev.bytes_freed > 0
    assert ev.victims >= 1
    assert ev.dirty_bytes <= ev.bytes_freed


def test_swap_area_gauges_exported():
    h = _run("partial")
    snap = h.runtime.metrics.snapshot()
    assert "swap_area_used_bytes" in snap
    assert "swap_area_peak_bytes" in snap
    assert snap["swap_area_peak_bytes"] >= snap["swap_area_used_bytes"]
    assert snap["swap_area_peak_bytes"] > 0


# ---------------------------------------------------------------------------
# Table 1: "Swap memory cannot be allocated"
# ---------------------------------------------------------------------------

def test_swap_exhaustion_reaches_application_instead_of_hanging():
    h = Harness(
        specs=[SMALL_GPU],
        config=RuntimeConfig(
            vgpus_per_device=1, host_swap_capacity_bytes=100 * MIB
        ),
    )

    def app():
        fe = h.frontend("greedy")
        yield from fe.open()
        yield from fe.cuda_malloc(60 * MIB)
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.cuda_malloc(60 * MIB)  # swap area has 40 MiB left
        assert e.value.code == RuntimeErrorCode.SWAP_ALLOCATION_FAILED
        yield from fe.cuda_thread_exit()
        return True

    p = h.spawn(app())
    h.run(until=p)
    assert p.value is True
