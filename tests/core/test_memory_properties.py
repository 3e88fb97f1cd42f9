"""Property-based tests of the memory manager through the full stack.

Random application call sequences (malloc / copy / launch / free) on a
memory-constrained GPU must always leave the system in a consistent
state: legal PTE flags, conserved device memory, balanced swap
accounting and no leaks after exit — regardless of how much swapping the
sequence provokes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RuntimeConfig
from repro.simcuda import GPUSpec, KernelDescriptor

from tests.core.conftest import Harness

MIB = 1024**2

SMALL_GPU = GPUSpec(
    name="prop-gpu", sm_count=14, cores_per_sm=32, clock_ghz=1.15,
    memory_bytes=512 * MIB,
)


def op_strategy():
    return st.lists(
        st.one_of(
            st.tuples(st.just("malloc"), st.integers(1, 120)),   # MiB
            st.tuples(st.just("h2d"), st.integers(0, 5)),        # buffer idx
            st.tuples(st.just("d2h"), st.integers(0, 5)),
            st.tuples(st.just("launch"), st.integers(0, 5)),
            st.tuples(st.just("free"), st.integers(0, 5)),
        ),
        min_size=1,
        max_size=20,
    )


def run_sequence(ops):
    h = Harness(specs=[SMALL_GPU], config=RuntimeConfig(vgpus_per_device=1))
    kernel = KernelDescriptor(
        name="prop-k", flops=0.01 * SMALL_GPU.effective_gflops * 1e9
    )
    observations = {}

    def app():
        fe = h.frontend("prop")
        yield from fe.open()
        buffers = []
        sizes = {}
        for kind, arg in ops:
            if kind == "malloc":
                size = arg * MIB
                vptr = yield from fe.cuda_malloc(size)
                buffers.append(vptr)
                sizes[vptr] = size
            elif not buffers:
                continue
            else:
                vptr = buffers[arg % len(buffers)]
                if kind == "h2d":
                    yield from fe.cuda_memcpy_h2d(vptr, sizes[vptr])
                elif kind == "d2h":
                    yield from fe.cuda_memcpy_d2h(vptr, sizes[vptr])
                elif kind == "launch":
                    yield from fe.launch_kernel(kernel, [vptr])
                elif kind == "free":
                    yield from fe.cuda_free(vptr)
                    buffers.remove(vptr)
                    del sizes[vptr]

            # Mid-run invariants after every call.
            ctx = h.runtime.dispatcher.contexts[0]
            for pte in h.memory.page_table.entries_for(ctx):
                pte.check_invariants()
            device = h.driver.devices[0]
            alloc = device.allocator
            assert alloc.used_bytes + alloc.free_bytes == alloc.capacity

        yield from fe.cuda_thread_exit()
        observations["done"] = True

    p = h.spawn(app())
    h.run(until=p)
    h.run()
    return h, observations


@settings(max_examples=30, deadline=None)
@given(ops=op_strategy())
def test_random_call_sequences_keep_invariants(ops):
    h, observations = run_sequence(ops)
    assert observations.get("done")

    device = h.driver.devices[0]
    # After exit: no application allocations remain (only the vGPU
    # context reservation).
    reservation = SMALL_GPU.context_reservation_bytes
    assert device.allocator.used_bytes == reservation
    # Swap fully released.
    assert h.memory.swap.used_bytes == 0
    # Page table empty.
    ctx = h.contexts[0]
    assert h.memory.page_table.entries_for(ctx) == []
    # Every vGPU idle.
    assert all(v.idle for v in h.scheduler.vgpus)


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.integers(30, 160), min_size=2, max_size=6),
    launch_order=st.lists(st.integers(0, 5), min_size=2, max_size=10),
)
def test_launch_storms_never_corrupt_state(sizes, launch_order):
    """Interleaved launches over many buffers (forcing intra-application
    swapping on the small device) always complete or fail cleanly."""
    ops = [("malloc", s) for s in sizes]
    ops += [("launch", i) for i in launch_order]
    run_sequence(ops)


@settings(max_examples=15, deadline=None)
@given(ops=op_strategy())
def test_two_tenants_random_sequences_isolate(ops):
    """Two tenants running the same random sequence never see each
    other's errors; aggregate accounting stays balanced."""
    h = Harness(specs=[SMALL_GPU], config=RuntimeConfig(vgpus_per_device=2))
    kernel = KernelDescriptor(
        name="k", flops=0.01 * SMALL_GPU.effective_gflops * 1e9
    )
    done = []

    def app(name):
        fe = h.frontend(name)
        yield from fe.open()
        buffers, sizes = [], {}
        for kind, arg in ops:
            if kind == "malloc":
                size = min(arg, 100) * MIB
                vptr = yield from fe.cuda_malloc(size)
                buffers.append(vptr)
                sizes[vptr] = size
            elif not buffers:
                continue
            else:
                vptr = buffers[arg % len(buffers)]
                if kind == "h2d":
                    yield from fe.cuda_memcpy_h2d(vptr, sizes[vptr])
                elif kind == "d2h":
                    yield from fe.cuda_memcpy_d2h(vptr, sizes[vptr])
                elif kind == "launch":
                    yield from fe.launch_kernel(kernel, [vptr])
                elif kind == "free":
                    yield from fe.cuda_free(vptr)
                    buffers.remove(vptr)
                    del sizes[vptr]
        yield from fe.cuda_thread_exit()
        done.append(name)

    h.spawn(app("t1"))
    h.spawn(app("t2"))
    h.run()
    assert sorted(done) == ["t1", "t2"]
    assert h.memory.swap.used_bytes == 0
    device = h.driver.devices[0]
    assert device.allocator.used_bytes == 2 * SMALL_GPU.context_reservation_bytes
