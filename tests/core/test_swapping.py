"""Intra- and inter-application swapping (paper §4.5).

Includes the paper's worked example: three square matrices of which only
two fit the device — the bare CUDA runtime fails at the third cudaMalloc,
while the runtime's intra-application swap lets the program complete.
"""

import pytest

from repro.core import RuntimeConfig
from repro.simcuda import (
    CudaDriver,
    CudaError,
    CudaRuntimeAPI,
    CudaRuntimeError,
    GPUSpec,
    KernelDescriptor,
)
from repro.sim import Environment

from tests.core.conftest import Harness, MIB

# A small GPU makes memory pressure cheap to construct: ~448 MiB usable
# after one vGPU context reservation (64 MiB).
SMALL_GPU = GPUSpec(
    name="SmallGPU",
    sm_count=14,
    cores_per_sm=32,
    clock_ghz=1.15,
    memory_bytes=512 * MIB,
)

MATRIX = 150 * MIB  # three matrices: 450 MiB > 448 MiB usable


def kernel(name="matmul", seconds=0.05):
    return KernelDescriptor(
        name=name, flops=seconds * SMALL_GPU.effective_gflops * 1e9
    )


def open_app(h, name="app"):
    fe = h.frontend(name)
    yield from fe.open()
    return fe


# ---------------------------------------------------------------------------
# the paper's §4.5 intra-application example
# ---------------------------------------------------------------------------

def test_bare_cuda_fails_on_third_matrix():
    """On the bare CUDA runtime the third cudaMalloc fails (§4.5)."""
    env = Environment()
    driver = CudaDriver(env, [SMALL_GPU])
    api = CudaRuntimeAPI(driver)

    def app():
        yield from api.cuda_malloc(MATRIX)  # A
        yield from api.cuda_malloc(MATRIX)  # B
        yield from api.cuda_malloc(MATRIX)  # C  → OOM

    p = env.process(app())
    with pytest.raises(CudaRuntimeError) as e:
        env.run(until=p)
    assert e.value.code == CudaError.cudaErrorMemoryAllocation


def test_intra_swap_lets_oversized_application_complete():
    """Same sequence through the runtime: A is swapped out before the
    second matmul, and the program completes (§4.5 instruction trace)."""
    h = Harness(specs=[SMALL_GPU], config=RuntimeConfig(vgpus_per_device=1))

    def app():
        fe = yield from open_app(h)
        matmul = kernel()
        a = yield from fe.cuda_malloc(MATRIX)
        b = yield from fe.cuda_malloc(MATRIX)
        c = yield from fe.cuda_malloc(MATRIX)
        yield from fe.cuda_memcpy_h2d(a, MATRIX)
        yield from fe.launch_kernel(matmul, [a, b], read_only=[a])  # B = A*A
        yield from fe.launch_kernel(matmul, [b, c], read_only=[b])  # C = B*B
        yield from fe.cuda_memcpy_d2h(b, MATRIX)
        yield from fe.cuda_memcpy_d2h(c, MATRIX)
        yield from fe.cuda_thread_exit()
        return True

    p = h.spawn(app())
    h.run(until=p)
    assert p.value is True
    assert h.stats.swaps_intra >= 1
    assert h.stats.swaps_inter == 0


def test_intra_swap_prefers_lru_entry():
    """The entry not referenced by the current launch and least recently
    used is evicted first."""
    h = Harness(specs=[SMALL_GPU], config=RuntimeConfig(vgpus_per_device=1))

    def app():
        fe = yield from open_app(h)
        k = kernel()
        a = yield from fe.cuda_malloc(MATRIX)
        b = yield from fe.cuda_malloc(MATRIX)
        c = yield from fe.cuda_malloc(MATRIX)
        yield from fe.launch_kernel(k, [a])
        yield from fe.launch_kernel(k, [b])
        # Launching on C must evict A (older) not B.
        yield from fe.launch_kernel(k, [c])
        # A's PTE should now be swap-resident; B still allocated.
        ptes = {p.size: p for p in h.memory.page_table.entries_for(
            h.runtime.dispatcher.contexts[0]
        )}
        entries = h.memory.page_table.entries_for(h.runtime.dispatcher.contexts[0])
        a_pte, b_pte, c_pte = sorted(entries, key=lambda p: p.virtual_ptr)
        assert not a_pte.is_allocated
        assert b_pte.is_allocated
        assert c_pte.is_allocated
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


def test_intra_swap_disabled_forces_retry_or_error():
    """With intra-application swap off and nobody else to evict, the
    launch cannot make progress; the kernel-footprint guard fires when
    the working set itself cannot fit."""
    h = Harness(
        specs=[SMALL_GPU],
        config=RuntimeConfig(
            vgpus_per_device=1, enable_intra_swap=False, enable_inter_swap=False
        ),
    )
    from repro.core.errors import RuntimeApiError, RuntimeErrorCode

    def app():
        fe = yield from open_app(h)
        k = kernel()
        big = yield from fe.cuda_malloc(500 * MIB)  # larger than usable
        with pytest.raises(RuntimeApiError) as e:
            yield from fe.launch_kernel(k, [big])
        assert e.value.code == RuntimeErrorCode.KERNEL_FOOTPRINT_TOO_LARGE
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)


def test_swap_preserves_dirty_data_roundtrip():
    """Written-then-swapped data must flow device→swap→device: the
    write-back byte counters prove the data followed the PTE."""
    h = Harness(specs=[SMALL_GPU], config=RuntimeConfig(vgpus_per_device=1))

    def app():
        fe = yield from open_app(h)
        k = kernel()
        a = yield from fe.cuda_malloc(MATRIX)
        b = yield from fe.cuda_malloc(MATRIX)
        c = yield from fe.cuda_malloc(MATRIX)
        yield from fe.launch_kernel(k, [a])      # A dirty on device
        yield from fe.launch_kernel(k, [b])      # B dirty
        yield from fe.launch_kernel(k, [c])      # evicts A → write-back
        assert h.stats.swap_bytes_out >= MATRIX
        yield from fe.launch_kernel(k, [a])      # A faults back in
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)
    assert h.stats.swap_bytes_in >= MATRIX


# ---------------------------------------------------------------------------
# inter-application swap
# ---------------------------------------------------------------------------

def _two_tenant_harness(**config_kwargs):
    cfg = RuntimeConfig(vgpus_per_device=2, **config_kwargs)
    return Harness(specs=[SMALL_GPU], config=cfg)


def _tenant(h, name, hold_s, results):
    """Allocates one matrix, launches, then sits in a CPU phase."""

    def app():
        fe = yield from open_app(h, name)
        k = kernel(name=f"{name}-k")
        a = yield from fe.cuda_malloc(2 * MATRIX)
        yield from fe.cuda_memcpy_h2d(a, 2 * MATRIX)
        yield from fe.launch_kernel(k, [a])
        yield h.env.timeout(hold_s)  # CPU phase: eligible swap victim
        yield from fe.launch_kernel(k, [a])
        yield from fe.cuda_memcpy_d2h(a, 2 * MATRIX)
        yield from fe.cuda_thread_exit()
        results[name] = h.env.now

    return app()


def test_inter_application_swap_time_shares_device():
    """Two tenants of 300 MiB each on a 448 MiB-usable device: the second
    launch must swap the first application out (§4.5)."""
    h = _two_tenant_harness()
    results = {}
    h.spawn(_tenant(h, "t1", hold_s=5.0, results=results))
    h.spawn(_tenant(h, "t2", hold_s=5.0, results=results))
    h.run()
    assert set(results) == {"t1", "t2"}  # both completed
    assert h.stats.swaps_inter >= 1


def test_inter_swap_victim_unbound_and_rebinds():
    h = _two_tenant_harness()
    results = {}
    h.spawn(_tenant(h, "t1", hold_s=5.0, results=results))
    h.spawn(_tenant(h, "t2", hold_s=5.0, results=results))
    h.run()
    # The victim had to rebind for its second launch: at least 3 bindings
    # total (t1, t2, victim again).
    assert h.stats.bindings >= 3
    assert h.stats.unbindings >= h.stats.bindings - 0  # all eventually unbound


def test_inter_swap_disabled_falls_back_to_retry():
    h = _two_tenant_harness(enable_inter_swap=False, swap_retry_backoff_s=1e-3)
    results = {}
    h.spawn(_tenant(h, "t1", hold_s=2.0, results=results))
    h.spawn(_tenant(h, "t2", hold_s=2.0, results=results))
    h.run()
    assert set(results) == {"t1", "t2"}  # still completes, via retries
    assert h.stats.swaps_inter == 0
    assert h.stats.swap_retries >= 1


def test_no_swap_of_gpu_busy_application():
    """A GPU-intensive tenant (no CPU phases) never honors swap requests,
    so the second tenant must retry-unbind rather than evict it mid-run
    ("enabling swaps only during CPU phases allows GPU intensive
    applications to make full use of the GPU")."""
    h = _two_tenant_harness(swap_retry_backoff_s=1e-3)
    done = {}

    def busy(name):
        def app():
            fe = yield from open_app(h, name)
            k = kernel(seconds=0.2)
            a = yield from fe.cuda_malloc(2 * MATRIX)
            for _ in range(10):  # back-to-back kernels, no CPU gaps
                yield from fe.launch_kernel(k, [a])
            yield from fe.cuda_thread_exit()
            done[name] = h.env.now

        return app()

    h.spawn(busy("b1"))
    h.spawn(busy("b2"))
    h.run()
    assert set(done) == {"b1", "b2"}


def test_swap_counts_match_context_counters():
    h = _two_tenant_harness()
    results = {}
    h.spawn(_tenant(h, "t1", hold_s=5.0, results=results))
    h.spawn(_tenant(h, "t2", hold_s=5.0, results=results))
    h.run()
    suffered = sum(c.swaps_suffered for c in h.contexts)
    assert suffered == h.stats.swaps_inter
