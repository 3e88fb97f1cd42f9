"""Fault tolerance, checkpoint-restart, and GPU hotplug (paper §4.6)."""

import pytest

from repro.core import RuntimeConfig
from repro.core.checkpoint import restore_context, snapshot_context
from repro.core.context import Context
from repro.core.dispatcher import Dispatcher
from repro.core.fault import FailureInjector, HotplugEvent
from repro.simcuda import KernelDescriptor, TESLA_C1060, TESLA_C2050

from tests.core.conftest import Harness, MIB


def kernel(seconds=0.5, name="k"):
    return KernelDescriptor(
        name=name, flops=seconds * TESLA_C2050.effective_gflops * 1e9
    )


def open_app(h, name="app"):
    fe = h.frontend(name)
    yield from fe.open()
    return fe


def iterative_app(h, name, results, kernels=6, kernel_s=0.5, cpu_s=0.3, alloc_mib=64):
    """A multi-phase application that records completion."""

    def app():
        fe = yield from open_app(h, name)
        k = kernel(kernel_s, f"{name}-k")
        a = yield from fe.cuda_malloc(alloc_mib * MIB)
        yield from fe.cuda_memcpy_h2d(a, alloc_mib * MIB)
        for _ in range(kernels):
            yield from fe.launch_kernel(k, [a])
            yield h.env.timeout(cpu_s)
        yield from fe.cuda_memcpy_d2h(a, alloc_mib * MIB)
        yield from fe.cuda_thread_exit()
        results[name] = h.env.now

    return app()


# ---------------------------------------------------------------------------
# failure recovery
# ---------------------------------------------------------------------------

def test_app_survives_device_failure_with_second_gpu():
    """GPU 0 dies mid-run; the context is rebound to GPU 1 and replayed —
    no application restart (the headline §4.6 property)."""
    h = Harness(specs=[TESLA_C2050, TESLA_C1060])
    results = {}
    h.spawn(iterative_app(h, "survivor", results))
    FailureInjector(h.runtime, [HotplugEvent(at_seconds=1.2, action="fail",
                                             device_index=0)]).start()
    h.run()
    assert "survivor" in results
    assert h.stats.failures_recovered >= 1
    # The survivor ended up on the surviving device.
    ctx = h.contexts[0]
    assert ctx.kernels_launched >= 6


def test_replay_reexecutes_unjournaled_kernels(monkeypatch):
    """Kernels whose effects were only on the failed device are replayed
    from the journal, every journaled launch once, though repeats of one
    launch share a record."""
    journals = []
    replay_journal = Dispatcher.replay_journal

    def spy(self, ctx):
        journals.append(list(ctx.replay_journal))
        return (yield from replay_journal(self, ctx))

    monkeypatch.setattr(Dispatcher, "replay_journal", spy)
    h = Harness(specs=[TESLA_C2050, TESLA_C1060])
    results = {}
    h.spawn(iterative_app(h, "a", results, kernels=4, kernel_s=0.5, cpu_s=0.1))
    # vGPU startup takes ~0.64 s (8 CUDA contexts); kernels complete from
    # ~1.2 s onwards.  Failing at 2.5 s guarantees a non-empty journal.
    FailureInjector(h.runtime, [HotplugEvent(at_seconds=2.5, action="fail",
                                             device_index=0)]).start()
    h.run()
    assert results
    (journal,) = journals
    assert len(journal) >= 2 and len({id(r) for r in journal}) == 1
    assert h.stats.replayed_kernels == len(journal)


def test_failure_without_spare_device_errors_out():
    """With no healthy device to rebind to, the application eventually
    receives the error instead of hanging forever."""
    h = Harness(
        specs=[TESLA_C2050],
        config=RuntimeConfig(max_failed_rebind_attempts=0),
    )
    from repro.simcuda import CudaRuntimeError

    failed = {}

    def app():
        fe = yield from open_app(h, "doomed")
        k = kernel(1.0)
        a = yield from fe.cuda_malloc(MIB)
        try:
            yield from fe.launch_kernel(k, [a])
            yield h.env.timeout(1.0)
            yield from fe.launch_kernel(k, [a])
        except CudaRuntimeError as exc:
            failed["error"] = exc

    h.spawn(app())
    FailureInjector(h.runtime, [HotplugEvent(at_seconds=0.5, action="fail",
                                             device_index=0)]).start()
    h.run()
    assert "error" in failed


def test_checkpoint_bounds_replay():
    """With automatic checkpoints after every kernel, the journal stays
    empty, so recovery replays nothing."""
    h = Harness(
        specs=[TESLA_C2050, TESLA_C1060],
        config=RuntimeConfig(checkpoint_kernel_seconds=0.0),
    )
    results = {}
    h.spawn(iterative_app(h, "ckpt", results, kernels=5, kernel_s=0.4, cpu_s=0.2))
    FailureInjector(h.runtime, [HotplugEvent(at_seconds=1.5, action="fail",
                                             device_index=0)]).start()
    h.run()
    assert results
    assert h.stats.checkpoints >= 4
    assert h.stats.replayed_kernels == 0


def test_explicit_checkpoint_call():
    h = Harness()

    def app():
        fe = yield from open_app(h, "explicit")
        k = kernel(0.2)
        a = yield from fe.cuda_malloc(32 * MIB)
        yield from fe.launch_kernel(k, [a])
        yield from fe.checkpoint()
        ctx = h.runtime.dispatcher.contexts[0]
        assert ctx.replay_journal == []
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)
    assert h.stats.checkpoints == 1


# ---------------------------------------------------------------------------
# dynamic upgrade / downgrade
# ---------------------------------------------------------------------------

def test_added_gpu_serves_waiting_contexts():
    """Dynamic upgrade: contexts waiting for a vGPU get served when a GPU
    is added."""
    h = Harness(specs=[TESLA_C2050], config=RuntimeConfig(vgpus_per_device=1))
    results = {}
    for i in range(3):
        h.spawn(iterative_app(h, f"j{i}", results, kernels=3, kernel_s=1.0, cpu_s=0))
    FailureInjector(
        h.runtime, [HotplugEvent(at_seconds=0.5, action="add", spec=TESLA_C1060)]
    ).start()
    h.run()
    assert len(results) == 3
    assert h.driver.device_count() == 2
    # Something actually ran on the added device.
    added = h.driver.devices[1]
    assert added.kernels_executed >= 1


def test_graceful_downgrade_migrates_contexts():
    """Removing a GPU drains its contexts; they finish elsewhere."""
    h = Harness(specs=[TESLA_C2050, TESLA_C1060], config=RuntimeConfig(vgpus_per_device=1))
    results = {}
    h.spawn(iterative_app(h, "a", results, kernels=8, kernel_s=0.3, cpu_s=0.3))
    h.spawn(iterative_app(h, "b", results, kernels=8, kernel_s=0.3, cpu_s=0.3))

    def downgrade():
        yield h.env.timeout(1.5)
        # Remove whichever device currently hosts a context.
        target = h.driver.devices[1]
        yield from h.runtime.remove_device_gracefully(target)

    h.spawn(downgrade())
    h.run()
    assert len(results) == 2
    assert h.driver.device_count() == 1


# ---------------------------------------------------------------------------
# snapshot / restore (BLCR integration point)
# ---------------------------------------------------------------------------

def test_snapshot_restore_roundtrip():
    h = Harness()
    snap_box = {}

    def app():
        fe = yield from open_app(h, "snap")
        k = kernel(0.2)
        a = yield from fe.cuda_malloc(16 * MIB)
        yield from fe.cuda_memcpy_h2d(a, 16 * MIB)
        yield from fe.launch_kernel(k, [a])
        ctx = h.runtime.dispatcher.contexts[0]
        snap_box["snap"] = snapshot_context(h.memory, ctx)
        yield from fe.cuda_thread_exit()

    p = h.spawn(app())
    h.run(until=p)

    snap = snap_box["snap"]
    assert snap.total_bytes == 16 * MIB
    assert len(snap.journal) == 1  # the un-checkpointed kernel

    # Restore into a fresh context on a fresh "restarted" node.
    h2 = Harness()
    ctx2 = Context(h2.env, owner="restored")
    translation = restore_context(h2.memory, ctx2, snap)
    assert len(translation) == 1
    assert h2.memory.swap.used_bytes == 16 * MIB
    assert len(ctx2.replay_journal) == 1
    new_vptr = list(translation.values())[0]
    pte = h2.memory.page_table.lookup(ctx2, new_vptr)
    assert pte.to_copy_2dev  # restored bytes flow to the device on first use
