"""Inter-node offloading tests (paper §4.7)."""

import pytest

from repro.core import Frontend, NodeRuntime, RuntimeConfig
from repro.obs import PhaseBreakdown
from repro.simcuda import CudaDriver, KernelDescriptor, TESLA_C1060, TESLA_C2050
from repro.sim import Environment

MIB = 1024**2


class TwoNodeHarness:
    """Node A (3 GPUs) and node B (1 GPU) with mutual offload peering."""

    def __init__(self, vgpus=4, offload=True, margin=0.5, **config):
        self.env = Environment()
        cfg = RuntimeConfig(
            vgpus_per_device=vgpus,
            offload_enabled=offload,
            offload_load_margin=margin,
            **config,
        )
        self.driver_a = CudaDriver(self.env, [TESLA_C2050, TESLA_C2050, TESLA_C1060])
        self.driver_b = CudaDriver(self.env, [TESLA_C1060])
        self.node_a = NodeRuntime(self.env, self.driver_a, cfg, name="nodeA")
        self.node_b = NodeRuntime(self.env, self.driver_b, cfg, name="nodeB")
        self.node_a.offloader.add_peer(self.node_b)
        self.node_b.offloader.add_peer(self.node_a)
        self.env.process(self.node_a.start())
        self.env.process(self.node_b.start())

    def job(self, node, name, results, kernels=3, kernel_s=0.5, cpu_s=0.1,
            batch_max_calls=1, trace_ids=None):
        def app():
            fe = Frontend(
                self.env, node.listener, name=name, batch_max_calls=batch_max_calls
            )
            yield from fe.open()
            if trace_ids is not None:
                trace_ids[name] = fe.trace_id
            k = KernelDescriptor(
                name=f"{name}-k",
                flops=kernel_s * TESLA_C2050.effective_gflops * 1e9,
            )
            a = yield from fe.cuda_malloc(16 * MIB)
            yield from fe.cuda_memcpy_h2d(a, 16 * MIB)
            for _ in range(kernels):
                yield from fe.launch_kernel(k, [a])
                if cpu_s:
                    yield self.env.timeout(cpu_s)
            yield from fe.cuda_memcpy_d2h(a, 16 * MIB)
            yield from fe.cuda_thread_exit()
            results[name] = self.env.now

        return self.env.process(app(), name=name)


def test_overloaded_node_offloads_to_idle_peer():
    h = TwoNodeHarness(vgpus=1)
    results = {}
    # 6 jobs all hammer node B (1 GPU, 1 vGPU); node A idles.
    for i in range(6):
        h.job(h.node_b, f"j{i}", results)
    h.env.run()
    assert len(results) == 6
    assert h.node_b.stats.offloads_out >= 1
    assert h.node_a.stats.offloads_in == h.node_b.stats.offloads_out
    # Offloaded kernels actually executed on node A's devices.
    assert sum(d.kernels_executed for d in h.driver_a.devices) >= 3


def test_no_offload_when_balanced():
    h = TwoNodeHarness(vgpus=4)
    results = {}
    h.job(h.node_a, "a0", results)
    h.job(h.node_b, "b0", results)
    h.env.run()
    assert len(results) == 2
    assert h.node_a.stats.offloads_out == 0
    assert h.node_b.stats.offloads_out == 0


def test_offload_disabled_keeps_jobs_local():
    h = TwoNodeHarness(vgpus=1, offload=False)
    results = {}
    for i in range(4):
        h.job(h.node_b, f"j{i}", results)
    h.env.run()
    assert len(results) == 4
    assert h.node_b.stats.offloads_out == 0
    assert sum(d.kernels_executed for d in h.driver_a.devices) == 0


def test_offload_improves_makespan_under_imbalance():
    def run(offload):
        h = TwoNodeHarness(vgpus=1, offload=offload)
        results = {}
        for i in range(6):
            h.job(h.node_b, f"j{i}", results, kernels=4, kernel_s=0.5)
        h.env.run()
        return max(results.values())

    assert run(offload=True) < run(offload=False)


def test_offloaded_connection_is_transparent():
    """The application cannot tell it was offloaded: same results, same
    protocol; only the runtime stats differ."""
    h = TwoNodeHarness(vgpus=1)
    results = {}
    for i in range(3):
        h.job(h.node_b, f"j{i}", results)
    h.env.run()
    assert len(results) == 3  # every app completed normally


@pytest.mark.parametrize("batch_max_calls", [1, 4], ids=["plain", "batched"])
def test_offloaded_calls_keep_origin_trace_id(batch_max_calls):
    """Offloaded connections complete, batched frames included, and the
    peer's call records carry the origin frontend's trace id and name."""
    h = TwoNodeHarness(vgpus=1, tracing=True, batch_max_calls=batch_max_calls)
    results, trace_ids = {}, {}
    for i in range(6):
        h.job(h.node_b, f"j{i}", results, batch_max_calls=batch_max_calls,
              trace_ids=trace_ids)
    h.env.run()
    assert len(results) == 6
    assert h.node_b.stats.offloads_out >= 1
    if batch_max_calls > 1:
        assert h.node_a.stats.batches_submitted > 0
    records = h.node_a.obs.events_of(PhaseBreakdown)
    assert len(records) == h.node_a.stats.calls_served > 0
    offloaded = {r.context for r in records}
    assert offloaded and offloaded <= set(trace_ids)
    for r in records:
        assert r.trace_id == trace_ids[r.context]


def test_cannot_peer_with_self():
    import pytest

    h = TwoNodeHarness()
    with pytest.raises(ValueError):
        h.node_a.offloader.add_peer(h.node_a)
