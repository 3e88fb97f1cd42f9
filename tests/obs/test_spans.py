"""Causal span propagation: CallSpan mechanics and the phase-sum
invariant — every completed call's PhaseBreakdown phases sum to its wall
time, under the plain runtime and under overlap + chunked swapping +
preemption."""

import pytest

from repro.core import Frontend, RuntimeConfig
from repro.obs import CallSpan, PHASES, PhaseBreakdown
from repro.sim import Environment

from tests.core.conftest import Harness, MIB

#: Simulated-time slack for the phase-sum invariant (one "tick" — times
#: are floats, so this is pure rounding headroom).
TICK = 1e-9


def traced(**config_kwargs):
    specs = config_kwargs.pop("specs", None)
    return Harness(specs=specs, config=RuntimeConfig(tracing=True, **config_kwargs))


# ----------------------------------------------------------------------
# CallSpan unit behavior
# ----------------------------------------------------------------------
def test_span_settles_elapsed_time_to_top_phase():
    env = Environment()

    def driver():
        span = CallSpan(env)
        span.push("queue_wait")
        yield env.timeout(2.0)
        span.pop()
        span.push("exec")
        yield env.timeout(3.0)
        span.pop()
        yield env.timeout(1.0)  # no phase pushed -> "other"
        phases = span.finish()
        assert phases == {"queue_wait": 2.0, "exec": 3.0, "other": 1.0}
        assert sum(phases.values()) == pytest.approx(span.wall)

    env.process(driver())
    env.run()


def test_span_credits_request_wire_time_to_rpc():
    env = Environment()

    def driver():
        yield env.timeout(5.0)
        # begin_at in the past (the client stamped sent_at=3.0): the
        # wire leg is credited to "rpc" up front.
        span = CallSpan(env, begin_at=3.0)
        yield env.timeout(1.0)
        phases = span.finish()
        assert phases["rpc"] == pytest.approx(2.0)
        assert sum(phases.values()) == pytest.approx(span.wall) == pytest.approx(3.0)

    env.process(driver())
    env.run()


def test_span_nested_phases_attribute_to_innermost():
    env = Environment()

    def driver():
        span = CallSpan(env)
        span.push("exec")
        yield env.timeout(1.0)
        span.push("fault_in")  # nested: inner phase wins while pushed
        yield env.timeout(2.0)
        span.pop()
        yield env.timeout(1.0)
        span.pop()
        phases = span.finish()
        assert phases == {"exec": 2.0, "fault_in": 2.0}

    env.process(driver())
    env.run()


def test_span_ids_are_unique():
    env = Environment()
    a, b = CallSpan(env), CallSpan(env)
    assert a.trace_id != b.trace_id


# ----------------------------------------------------------------------
# the invariant, end to end
# ----------------------------------------------------------------------
def _assert_breakdowns_consistent(runtime):
    """One record per served call; phases sum to wall; the server
    interval lies inside the call's span."""
    breakdowns = runtime.obs.events_of(PhaseBreakdown)
    assert len(breakdowns) == runtime.stats.calls_served > 0
    for pb in breakdowns:
        assert pb.phases, f"empty phase list for {pb.method} of {pb.context}"
        total = sum(dt for _, dt in pb.phases)
        assert total == pytest.approx(pb.wall, abs=TICK), (
            f"{pb.context} {pb.method}: phases sum {total} != wall {pb.wall}"
        )
        assert pb.wall == pytest.approx(pb.at - pb.begin_at, abs=TICK)
        assert pb.begin_at <= pb.served_at + TICK
        assert pb.served_s >= 0
        assert pb.served_at + pb.served_s <= pb.at + TICK
        assert all(name in PHASES for name, _ in pb.phases)
        assert pb.trace_id is not None and pb.span_id is not None
    # spans of one connection share the client's trace id
    by_context = {}
    for pb in breakdowns:
        by_context.setdefault(pb.context, set()).add(pb.trace_id)
    assert all(len(ids) == 1 for ids in by_context.values())


def test_phase_sum_equals_wall_time_plain_runtime():
    h = traced(vgpus_per_device=4)
    for i in range(3):
        h.spawn(h.simple_app(f"app{i}", kernel_seconds=0.3, kernel_count=2))
    h.run()
    _assert_breakdowns_consistent(h.runtime)


def test_phase_sum_under_overcommit_swap_and_contention():
    """Two memory hogs on one vGPU: queue wait, fault-in, eviction stalls
    and the unbind-retry path all appear, and the invariant holds."""
    h = traced(vgpus_per_device=1)
    for i in range(2):
        h.spawn(h.simple_app(f"big{i}", alloc_mib=1600, kernel_seconds=0.4,
                             kernel_count=3, cpu_phase_s=0.2))
    h.run()
    obs = h.runtime.obs
    _assert_breakdowns_consistent(h.runtime)
    seen = {name for pb in obs.events_of(PhaseBreakdown) for name, _ in pb.phases}
    assert "exec" in seen and "bind_wait" in seen and "fault_in" in seen


def test_phase_sum_under_overlap_chunking_and_preemption():
    """The hard mode: pipelined copy streams, chunked demand paging and
    quantum preemption together."""
    h = traced(
        vgpus_per_device=2,
        overlap_transfers=True,
        swap_chunk_bytes=64 * MIB,
        vgpu_quantum_s=0.25,
    )
    for i in range(3):
        h.spawn(h.simple_app(f"hog{i}", alloc_mib=1500, kernel_seconds=0.4,
                             kernel_count=4, cpu_phase_s=0.1))
    h.run()
    _assert_breakdowns_consistent(h.runtime)


def test_phase_sum_holds_under_batching():
    """Satellite invariant: with calls completing inside a batch, the
    reply's wire leg is credited once per batch (to the tail call) and
    every call's phases still sum to its wall time."""
    h = traced(batch_max_calls=8, launch_control_plane_s=40e-6)

    def app(name):
        def body():
            fe = h.frontend(name, batch_max_calls=8)
            yield from fe.open()
            from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050

            kernel = KernelDescriptor(
                name=f"{name}-k", flops=0.05 * TESLA_C2050.effective_gflops * 1e9
            )
            handle = yield from fe.register_fat_binary(FatBinary())
            yield from fe.register_function(handle, kernel)
            ptr = yield from fe.cuda_malloc(16 * MIB)
            yield from fe.cuda_memcpy_h2d(ptr, 16 * MIB)
            for _ in range(10):
                yield from fe.launch_kernel(kernel, [ptr])
            yield from fe.cuda_memcpy_d2h(ptr, 16 * MIB)
            yield from fe.cuda_thread_exit()

        return body()

    for i in range(2):
        h.spawn(app(f"bapp{i}"))
    h.run()
    obs = h.runtime.obs
    assert h.runtime.stats.batches_submitted > 0
    _assert_breakdowns_consistent(h.runtime)
    seen = {name for pb in obs.events_of(PhaseBreakdown) for name, _ in pb.phases}
    # journaled calls show client-side batch-queue time
    assert "batch_queue" in seen
    # the reply wire leg appears once per batch: exactly the tail spans
    # (plus every plain-path call) carry "rpc"
    from repro.obs import BatchSubmit

    batches = obs.events_of(BatchSubmit)
    batched_pbs = [
        pb for pb in obs.events_of(PhaseBreakdown)
        if any(n == "batch_queue" for n, _ in pb.phases)
    ]
    with_rpc = [
        pb for pb in batched_pbs if any(n == "rpc" and dt > 0 for n, dt in pb.phases)
    ]
    assert len(batches) > 0 and len(batched_pbs) > 0
    # wire legs are charged per *batch*, not per call: only the first
    # call (request leg) and the tail call (reply leg) of each frame may
    # carry rpc time — middle calls never do
    assert len(with_rpc) <= 2 * len(batches) < len(batched_pbs) + 2 * len(batches)
    assert len(with_rpc) < len(batched_pbs)


def test_graph_replay_phase_and_events_appear():
    h = traced(graph_replay_enabled=True, launch_control_plane_s=40e-6)

    def app():
        fe = h.frontend("gapp")
        yield from fe.open()
        from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050

        kernel = KernelDescriptor(
            name="g-k", flops=0.05 * TESLA_C2050.effective_gflops * 1e9
        )
        handle = yield from fe.register_fat_binary(FatBinary())
        yield from fe.register_function(handle, kernel)
        ptr = yield from fe.cuda_malloc(8 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 8 * MIB)
        yield from fe.graph_begin_capture()
        for _ in range(3):
            yield from fe.launch_kernel(kernel, [ptr])
        graph = yield from fe.graph_end_capture()
        yield from fe.graph_launch(graph)
        yield from fe.graph_launch(graph)
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    obs = h.runtime.obs
    _assert_breakdowns_consistent(h.runtime)
    from repro.obs import GraphInstantiate, GraphReplay

    inst = obs.events_of(GraphInstantiate)
    replays = obs.events_of(GraphReplay)
    assert len(inst) == 1 and inst[0].explicit and inst[0].kernels == 3
    assert len(replays) == 2 and all(r.kernels == 3 for r in replays)
    graph_pbs = [
        pb for pb in obs.events_of(PhaseBreakdown)
        if pb.method == "reproGraphLaunch"
    ]
    assert len(graph_pbs) == 2
    # the hot replay pays one control-plane charge, attributed to the
    # "graph_replay" phase (the cold first replay pays per-launch inside
    # "exec", so only the hot one shows the phase)
    assert any(
        n == "graph_replay" and dt > 0 for pb in graph_pbs for n, dt in pb.phases
    )
    assert all(any(n == "exec" for n, _ in pb.phases) for pb in graph_pbs)


def test_one_record_per_call_on_graph_frames():
    """Auto-detected graph replay of batch frames: every call of a
    replayed frame still gets exactly one record, and phases sum to
    wall on the non-tail calls as on the tail call."""
    h = traced(batch_max_calls=8, graph_replay_enabled=True,
               launch_control_plane_s=40e-6)

    def app():
        fe = h.frontend("looper", batch_max_calls=8)
        yield from fe.open()
        from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050

        kernel = KernelDescriptor(
            name="loop-k", flops=0.05 * TESLA_C2050.effective_gflops * 1e9
        )
        handle = yield from fe.register_fat_binary(FatBinary())
        yield from fe.register_function(handle, kernel)
        ptr = yield from fe.cuda_malloc(8 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 8 * MIB)
        yield from fe.flush()
        for _ in range(6 * 4):  # 6 identical frames of 4 cfg/launch pairs
            yield from fe.launch_kernel(kernel, [ptr])
        yield from fe.cuda_memcpy_d2h(ptr, 8 * MIB)
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert h.runtime.stats.graph_replays > 0
    _assert_breakdowns_consistent(h.runtime)
    # every launch record names the vGPU that served it, replayed
    # non-tail calls included
    launches = [
        pb for pb in h.runtime.obs.events_of(PhaseBreakdown)
        if pb.method == "cudaLaunch"
    ]
    assert len(launches) == 24
    assert all(pb.vgpu is not None for pb in launches)


def test_call_events_carry_tenant_label():
    h = traced(vgpus_per_device=2)

    def app():
        fe = Frontend(h.env, h.runtime.listener, name="tapp", tenant="acme")
        yield from fe.open()
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    obs = h.runtime.obs
    records = [e for e in obs.events_of(PhaseBreakdown) if e.context == "tapp"]
    assert len(records) == h.runtime.stats.calls_served
    # the handshake names the tenant mid-call, so its record (emitted
    # once the reply lands) carries the label like every later call
    assert all(e.tenant == "acme" for e in records)


def test_frontend_exposes_trace_id():
    h = traced()
    captured = {}

    def app():
        fe = h.frontend("app0")
        assert fe.trace_id is None
        yield from fe.open()
        captured["trace_id"] = fe.trace_id
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert captured["trace_id"] is not None
    breakdowns = h.runtime.obs.events_of(PhaseBreakdown)
    assert {pb.trace_id for pb in breakdowns} == {captured["trace_id"]}


def test_tracing_off_leaves_no_spans():
    h = Harness(config=RuntimeConfig())
    h.spawn(h.simple_app("app0", kernel_seconds=0.2))
    h.run()
    assert h.runtime.obs.events == []
