"""PTX-derived registration: the runtime detects sharing-unsafe kernels
from the fat binary's PTX image, not from application claims."""

from repro.simcuda import FatBinary

from tests.core.conftest import Harness, MIB

MALLOC_PTX = """
.version 3.0
.target sm_20
.address_size 64
.visible .entry builder ( .param .u64 out )
{
    .reg .s64 %rd<4>;
    .param .u64 retval;
    mov.u64 %rd1, 4096;
    call.uni (retval), malloc, (%rd1);
    ret;
}
"""

CLEAN_PTX = """
.version 3.0
.target sm_20
.address_size 64
.visible .entry square ( .param .u64 data )
{
    .reg .f32 %f<3>;
    .reg .s64 %rd<3>;
    ld.param.u64 %rd1, [data];
    cvta.to.global.u64 %rd2, %rd1;
    ld.global.f32 %f1, [%rd2];
    mul.f32 %f2, %f1, %f1;
    st.global.f32 [%rd2], %f2;
    ret;
}
"""


def test_from_ptx_builds_descriptors():
    fb = FatBinary.from_ptx(CLEAN_PTX, flops={"square": 2e9})
    assert "square" in fb.functions
    assert fb.functions["square"].flops == 2e9
    assert not fb.needs_exclusion_from_sharing


def test_malloc_kernel_excludes_context_from_sharing(harness):
    h = harness

    def app():
        fe = h.frontend("dyn")
        yield from fe.open()
        fb = FatBinary.from_ptx(MALLOC_PTX)
        yield from fe.register_fat_binary(fb)
        a = yield from fe.cuda_malloc(MIB)
        yield from fe.launch_kernel(fb.functions["builder"], [a])
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)
    ctx = h.contexts[0]
    assert ctx.excluded_from_sharing


def test_clean_ptx_kernel_stays_shareable(harness):
    h = harness

    def app():
        fe = h.frontend("clean")
        yield from fe.open()
        fb = FatBinary.from_ptx(CLEAN_PTX)
        yield from fe.register_fat_binary(fb)
        a = yield from fe.cuda_malloc(MIB)
        yield from fe.launch_kernel(fb.functions["square"], [a])
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)
    ctx = h.contexts[0]
    assert not ctx.excluded_from_sharing
    assert h.stats.kernels_launched == 1
