"""Control-plane batching and graph replay: frontend journaling, batch
execution semantics (mid-batch failure, flush barriers, delay timers),
graph capture/auto-detection/replay and invalidation."""

import pytest

from repro.core import RuntimeConfig
from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.core.protocol import CallType
from repro.net.rpc import Request
from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050, TESLA_C1060

from tests.core.conftest import Harness, MIB


def make_kernel(name="k", seconds=0.05):
    return KernelDescriptor(
        name=name, flops=seconds * TESLA_C2050.effective_gflops * 1e9
    )


def open_and_register(h, fe, kernel):
    yield from fe.open()
    handle = yield from fe.register_fat_binary(FatBinary())
    yield from fe.register_function(handle, kernel)


# ---------------------------------------------------------------------------
# frontend journaling + batch execution
# ---------------------------------------------------------------------------
def test_batched_app_completes_in_fewer_round_trips():
    h = Harness()
    kernel = make_kernel()
    done = {}

    def app():
        fe = h.frontend("batched", batch_max_calls=8)
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(64 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 64 * MIB)
        for _ in range(12):
            yield from fe.launch_kernel(kernel, [ptr])
        yield from fe.cuda_memcpy_d2h(ptr, 64 * MIB)
        yield from fe.cuda_free(ptr)
        yield from fe.cuda_thread_exit()
        done["at"] = h.env.now

    h.spawn(app())
    h.run()
    assert "at" in done
    stats = h.stats
    assert stats.kernels_launched == 12
    assert stats.batches_submitted >= 2
    # h2d + 24 cfg/launch + the barrier tails all went through batches.
    assert stats.batched_calls > stats.batches_submitted
    # average achieved batch size is meaningfully > 1
    assert stats.batched_calls / stats.batches_submitted >= 3


def test_flush_barrier_ships_pending_batch_with_itself_as_tail():
    h = Harness()
    kernel = make_kernel()

    def app():
        fe = h.frontend("tail", batch_max_calls=64)
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(8 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 8 * MIB)
        yield from fe.launch_kernel(kernel, [ptr])  # 2 journaled calls
        assert len(fe._batch) == 3  # h2d + cfg + launch, none shipped yet
        yield from fe.cuda_memcpy_d2h(ptr, 8 * MIB)  # barrier
        assert fe._batch == []
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    # one batch: h2d + cfg + launch + d2h tail; exit found an empty
    # journal and went out as a plain single-call RPC
    assert h.stats.batches_submitted == 1
    assert h.stats.kernels_launched == 1


def test_batch_of_one_or_disabled_batching_uses_plain_path():
    h = Harness()
    kernel = make_kernel()

    def app():
        fe = h.frontend("plain", batch_max_calls=1)
        assert not fe._batching
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(8 * MIB)
        yield from fe.launch_kernel(kernel, [ptr])
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert h.stats.batches_submitted == 0
    assert h.stats.batched_calls == 0
    assert h.stats.kernels_launched == 1


def test_mid_batch_failure_aborts_tail_with_typed_errors():
    """Call k fails -> k+1..N carry BATCH_ABORTED, earlier results
    survive, and the dispatcher answers every call (no hang)."""
    h = Harness()
    kernel = make_kernel()
    seen = {}

    def app():
        fe = h.frontend("failer", batch_max_calls=64)
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(8 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 8 * MIB)
        yield from fe.flush()
        calls = [
            Request(method=CallType.CONFIGURE_CALL, args={}),
            Request(method=CallType.LAUNCH, args={"kernel": kernel, "args": (ptr,)}),
            Request(
                method=CallType.MEMCPY_H2D,
                args={"vptr": 0xDEAD, "nbytes": MIB},
                payload_bytes=MIB,
            ),
            Request(method=CallType.CONFIGURE_CALL, args={}),
            Request(method=CallType.LAUNCH, args={"kernel": kernel, "args": (ptr,)}),
        ]
        responses = yield from fe._rpc.call_batch(calls)
        seen["responses"] = responses
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    responses = seen["responses"]
    assert [r.error is None for r in responses] == [True, True, False, False, False]
    failing = responses[2].error
    assert isinstance(failing, RuntimeApiError)
    assert failing.code is RuntimeErrorCode.NO_VALID_PTE
    for aborted in responses[3:]:
        assert isinstance(aborted.error, RuntimeApiError)
        assert aborted.error.code is RuntimeErrorCode.BATCH_ABORTED
    # the launch before the failure executed; the one after did not
    assert h.stats.kernels_launched == 1


def test_flush_raises_root_cause_not_batch_aborted():
    h = Harness()
    kernel = make_kernel()
    caught = {}

    def app():
        fe = h.frontend("raiser", batch_max_calls=64)
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(8 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 8 * MIB)
        yield from fe.cuda_memcpy_h2d(0xBAD, MIB)  # journaled, will fail
        yield from fe.launch_kernel(kernel, [ptr])  # journaled, aborted
        try:
            yield from fe.cuda_memcpy_d2h(ptr, 8 * MIB)  # barrier flushes
        except RuntimeApiError as exc:
            caught["code"] = exc.code
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert caught["code"] is RuntimeErrorCode.NO_VALID_PTE
    assert h.stats.kernels_launched == 0


def test_batched_app_survives_device_failure():
    """Mid-batch device retirement: the recovery/rebind loop runs inside
    batch execution, the journal replays, and the app completes."""
    h = Harness(specs=[TESLA_C2050, TESLA_C1060])
    kernel = make_kernel(seconds=0.3)
    done = {}

    def app():
        fe = h.frontend("survivor", batch_max_calls=4)
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(32 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 32 * MIB)
        for _ in range(10):
            yield from fe.launch_kernel(kernel, [ptr])
        yield from fe.cuda_memcpy_d2h(ptr, 32 * MIB)
        yield from fe.cuda_thread_exit()
        done["at"] = h.env.now

    def killer():
        yield h.env.timeout(1.5)
        h.runtime.fail_device(h.driver.devices[0])

    h.spawn(app())
    h.spawn(killer())
    h.run()
    assert "at" in done
    assert h.stats.kernels_launched >= 10


# ---------------------------------------------------------------------------
# graph capture / replay
# ---------------------------------------------------------------------------
def graph_config(**kw):
    return RuntimeConfig(
        graph_replay_enabled=True, launch_control_plane_s=40e-6, **kw
    )


def test_explicit_capture_records_without_executing():
    h = Harness(config=graph_config())
    kernel = make_kernel()
    seen = {}

    def app():
        fe = h.frontend("capturer")
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(8 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 8 * MIB)
        yield from fe.graph_begin_capture()
        for _ in range(5):
            yield from fe.launch_kernel(kernel, [ptr])
        assert h.stats.kernels_launched == 0  # recorded, not executed
        graph = yield from fe.graph_end_capture()
        seen["graph"] = graph
        yield from fe.graph_launch(graph)
        yield from fe.graph_launch(graph)
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert seen["graph"] is not None
    assert h.stats.graphs_instantiated == 1
    assert h.stats.graph_replays == 2
    assert h.stats.graph_replayed_kernels == 10
    assert h.stats.kernels_launched == 10


def test_graph_launch_unknown_handle_is_typed_error():
    h = Harness(config=graph_config())
    caught = {}

    def app():
        fe = h.frontend("bad-graph")
        yield from fe.open()
        try:
            yield from fe.graph_launch(999)
        except RuntimeApiError as exc:
            caught["code"] = exc.code
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert caught["code"] is RuntimeErrorCode.GRAPH_INVALID


def test_repeated_batches_auto_instantiate_and_replay():
    """Journal-based detection: identical launch-only batch frames are
    instantiated after ``GRAPH_MIN_REPEATS`` and replayed thereafter."""
    h = Harness(config=graph_config(batch_max_calls=8))
    kernel = make_kernel()

    def app():
        fe = h.frontend("looper", batch_max_calls=8)
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(8 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 8 * MIB)
        yield from fe.flush()
        for _ in range(6 * 4):  # 6 identical frames of 4 cfg/launch pairs
            yield from fe.launch_kernel(kernel, [ptr])
        yield from fe.cuda_memcpy_d2h(ptr, 8 * MIB)
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    stats = h.stats
    assert stats.graphs_instantiated == 1
    # frames 1-2 count as repeats, 3 instantiates... no: 1-2 reach the
    # min_repeats threshold (instantiating on the 2nd), 3-6 replay.
    assert stats.graph_replays == 4
    assert stats.graph_replayed_kernels == 16
    assert stats.kernels_launched == 24


def test_graph_invalidated_when_working_set_evicted_between_replays():
    h = Harness(config=graph_config())
    kernel = make_kernel()

    def app():
        fe = h.frontend("evictee")
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(8 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 8 * MIB)
        yield from fe.graph_begin_capture()
        yield from fe.launch_kernel(kernel, [ptr])
        graph = yield from fe.graph_end_capture()
        yield from fe.graph_launch(graph)  # cold execution
        yield from fe.graph_launch(graph)  # hot: epoch unchanged
        assert h.stats.graphs_invalidated == 0
        # Evict the journaled working set between replays (the context is
        # in a CPU phase here, so swap-out is legal).
        ctx = h.runtime.dispatcher.contexts[0]
        yield from h.memory.swap_out_context(ctx, notify=False)
        yield from fe.graph_launch(graph)  # stale translations
        yield from fe.cuda_thread_exit()

    h.spawn(app())
    h.run()
    assert h.stats.graphs_invalidated == 1
    assert h.stats.graph_replays == 3
    # the invalidated replay still executed correctly (re-faulted)
    assert h.stats.kernels_launched == 3


def test_quantum_preemption_fires_between_batches():
    """Time-slicing still works under batching: preemption is deferred to
    batch boundaries but does fire there."""
    h = Harness(
        config=RuntimeConfig(
            vgpus_per_device=1, qos_enabled=True, vgpu_quantum_s=0.2,
            batch_max_calls=4,
        )
    )
    kernel = make_kernel(seconds=0.15)

    def app(name):
        def body():
            fe = h.frontend(name, batch_max_calls=4)
            yield from open_and_register(h, fe, kernel)
            ptr = yield from fe.cuda_malloc(16 * MIB)
            yield from fe.cuda_memcpy_h2d(ptr, 16 * MIB)
            for _ in range(8):
                yield from fe.launch_kernel(kernel, [ptr])
            yield from fe.cuda_memcpy_d2h(ptr, 16 * MIB)
            yield from fe.cuda_thread_exit()

        return body()

    h.spawn(app("a"))
    h.spawn(app("b"))
    h.run()
    assert h.stats.preemptions > 0
    assert h.stats.batches_submitted > 0
    assert h.stats.kernels_launched == 16


def test_journal_replay_after_failure_preserves_graphs():
    """Device failure between graph replays: recovery replays the
    journal, and the instantiated graph remains usable (revalidating on
    the new device)."""
    h = Harness(specs=[TESLA_C2050, TESLA_C1060], config=graph_config())
    kernel = make_kernel(seconds=0.2)
    done = {}

    def app():
        fe = h.frontend("phoenix")
        yield from open_and_register(h, fe, kernel)
        ptr = yield from fe.cuda_malloc(16 * MIB)
        yield from fe.cuda_memcpy_h2d(ptr, 16 * MIB)
        yield from fe.graph_begin_capture()
        for _ in range(3):
            yield from fe.launch_kernel(kernel, [ptr])
        graph = yield from fe.graph_end_capture()
        yield from fe.graph_launch(graph)
        yield h.env.timeout(1.0)  # device dies in this window
        yield from fe.graph_launch(graph)
        yield from fe.cuda_thread_exit()
        done["at"] = h.env.now

    def killer():
        yield h.env.timeout(2.0)
        h.runtime.fail_device(h.driver.devices[0])

    h.spawn(app())
    h.spawn(killer())
    h.run()
    assert "at" in done
    assert h.stats.graph_replays == 2
    # both replays' kernels ran (some possibly twice via journal replay)
    assert h.stats.kernels_launched >= 6


def test_batch_config_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(batch_max_calls=0)
    with pytest.raises(ValueError):
        RuntimeConfig(launch_control_plane_s=-1e-6)
