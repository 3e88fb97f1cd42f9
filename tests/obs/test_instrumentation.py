"""End-to-end event emission from the instrumented runtime paths."""

from repro.core import RuntimeConfig
from repro.obs import (
    Bind,
    Migration,
    PhaseBreakdown,
    QueueDepthChanged,
    SwapIn,
    SwapOut,
    Unbind,
    chrome_trace,
)
from repro.simcuda import QUADRO_2000, TESLA_C2050

from tests.core.conftest import Harness, MIB


def traced_harness(**config_kwargs):
    specs = config_kwargs.pop("specs", None)
    h = Harness(specs=specs, config=RuntimeConfig(tracing=True, **config_kwargs))
    assert h.runtime.obs.enabled
    return h


def test_call_spans_and_binding_events():
    h = traced_harness(vgpus_per_device=4)
    h.spawn(h.simple_app("app0", kernel_seconds=0.5))
    h.run()
    obs = h.runtime.obs
    records = obs.events_of(PhaseBreakdown)
    assert len(records) == h.stats.calls_served
    launches = [e for e in records if e.method == "cudaLaunch"]
    assert launches and all(e.served_s > 0 and e.vgpu for e in launches)
    binds = obs.events_of(Bind)
    unbinds = obs.events_of(Unbind)
    assert len(binds) == h.stats.bindings
    assert len(unbinds) == h.stats.unbindings
    assert unbinds[-1].reason == "exit"
    # the trace exporter accepts the real event stream
    trace = chrome_trace(obs.events)
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_swap_events_carry_bytes():
    """Two memory-hungry tenants on one GPU force inter-app swapping."""
    h = traced_harness(vgpus_per_device=2)
    for i in range(2):
        h.spawn(h.simple_app(f"big{i}", alloc_mib=1600, kernel_seconds=0.5,
                             kernel_count=3, cpu_phase_s=0.3))
    h.run()
    obs = h.runtime.obs
    outs = obs.events_of(SwapOut)
    ins = obs.events_of(SwapIn)
    assert outs and ins
    assert sum(e.nbytes for e in outs) == h.stats.swap_bytes_out
    assert sum(e.nbytes for e in ins) == h.stats.swap_bytes_in
    # swap histograms observed the same traffic
    assert h.runtime.metrics.get("swap_out_bytes").count == len(outs)
    assert h.runtime.metrics.get("swap_in_bytes").count == len(ins)


def test_migration_event_emitted():
    h = traced_harness(
        specs=[TESLA_C2050, QUADRO_2000],
        vgpus_per_device=1,
        migration_enabled=True,
    )

    def phased(name, kernels, kernel_s, cpu_s):
        def app():
            fe = h.frontend(name)
            yield from fe.open()
            from repro.simcuda import KernelDescriptor

            k = KernelDescriptor(
                name=f"{name}-k",
                flops=kernel_s * TESLA_C2050.effective_gflops * 1e9,
            )
            a = yield from fe.cuda_malloc(32 * MIB)
            yield from fe.cuda_memcpy_h2d(a, 32 * MIB)
            for _ in range(kernels):
                yield from fe.launch_kernel(k, [a])
                yield h.env.timeout(cpu_s)
            yield from fe.cuda_thread_exit()

        return app()

    h.spawn(phased("short", kernels=2, kernel_s=0.3, cpu_s=0.1))
    h.spawn(phased("long", kernels=8, kernel_s=0.5, cpu_s=0.5))
    h.run()
    migrations = h.runtime.obs.events_of(Migration)
    assert len(migrations) == h.stats.migrations >= 1
    m = migrations[0]
    assert m.context == "long"
    assert m.src_device != m.dst_device
    # migration unbinds carry their reason
    reasons = {e.reason for e in h.runtime.obs.events_of(Unbind)}
    assert "migration" in reasons


def test_queue_depth_events_track_waiting_contexts():
    h = traced_harness(vgpus_per_device=1)
    for i in range(3):
        h.spawn(h.simple_app(f"app{i}", kernel_seconds=0.5))
    h.run()
    depths = [
        e.depth
        for e in h.runtime.obs.events_of(QueueDepthChanged)
        if e.queue == "waiting_contexts"
    ]
    assert depths and max(depths) >= 1 and depths[-1] == 0
    waits = h.runtime.metrics.get("queue_wait_seconds")
    assert waits.count >= h.stats.bindings
