"""Shared builders for core-runtime tests."""

import pytest

from repro.sim import Environment
from repro.simcuda import CudaDriver, FatBinary, KernelDescriptor, TESLA_C2050
from repro.core import Frontend, NodeRuntime, RuntimeConfig

MIB = 1024**2
GIB = 1024**3


class Harness:
    """One node runtime plus helpers to run simple applications on it."""

    def __init__(self, specs=None, config=None):
        self.env = Environment()
        self.driver = CudaDriver(self.env, specs or [TESLA_C2050])
        self.runtime = NodeRuntime(self.env, self.driver, config or RuntimeConfig())
        self.env.process(self.runtime.start())
        #: Every context the dispatcher opened, in order.  The
        #: dispatcher drops a context when it exits; tests that inspect
        #: one after the run read it here.
        self.contexts = []
        open_context = self.runtime.dispatcher.open_context

        def tracked(owner):
            ctx = open_context(owner)
            self.contexts.append(ctx)
            return ctx

        self.runtime.dispatcher.open_context = tracked

    @property
    def memory(self):
        return self.runtime.memory

    @property
    def scheduler(self):
        return self.runtime.scheduler

    @property
    def stats(self):
        return self.runtime.stats

    def frontend(self, name="app", estimated_gpu_seconds=None, **kwargs):
        return Frontend(
            self.env,
            self.runtime.listener,
            name=name,
            estimated_gpu_seconds=estimated_gpu_seconds,
            **kwargs,
        )

    def spawn(self, gen, name=None):
        return self.env.process(gen, name=name)

    def run(self, until=None):
        return self.env.run(until=until)

    def simple_app(
        self,
        name="app",
        alloc_mib=64,
        kernel_seconds=0.5,
        kernel_count=1,
        cpu_phase_s=0.0,
        free_at_end=True,
    ):
        """An application: malloc → h2d → k kernels (with CPU gaps) → d2h →
        free → exit.  Returns (start, end) times."""

        def _app():
            fe = self.frontend(name)
            yield from fe.open()
            fatbin = FatBinary()
            kernel = KernelDescriptor(
                name=f"{name}-kernel",
                flops=kernel_seconds * TESLA_C2050.effective_gflops * 1e9,
            )
            handle = yield from fe.register_fat_binary(fatbin)
            yield from fe.register_function(handle, kernel)
            start = self.env.now
            size = alloc_mib * MIB
            ptr = yield from fe.cuda_malloc(size)
            yield from fe.cuda_memcpy_h2d(ptr, size)
            for _ in range(kernel_count):
                yield from fe.launch_kernel(kernel, [ptr])
                if cpu_phase_s:
                    yield self.env.timeout(cpu_phase_s)
            yield from fe.cuda_memcpy_d2h(ptr, size)
            if free_at_end:
                yield from fe.cuda_free(ptr)
            yield from fe.cuda_thread_exit()
            return (start, self.env.now)

        return _app()


@pytest.fixture
def harness():
    return Harness()
