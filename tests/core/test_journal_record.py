"""The replay journal (§4.6) holds the dispatcher's own launch records.

``Dispatcher._launch`` builds one :class:`KernelLaunch` per ``cudaLaunch``
(virtual pointers, grid, block, read-only set) and the memory manager
journals that object rather than a copy.  The record keeps the
read-only pointers in request order, repeats included, where a copy
used to keep ``tuple(set(...))``; journal replay and the checkpoint's
journal translation must read either form as a set.
"""

import dataclasses

import pytest

from repro.core import NodeRuntime, RuntimeConfig
from repro.core import dispatcher as dispatcher_module
from repro.core.checkpoint import restore_context, snapshot_context
from repro.core.context import Context
from repro.sim import Environment
from repro.simcuda import CudaDriver, KernelDescriptor, TESLA_C2050

from tests.core.conftest import Harness, MIB

KERNEL = KernelDescriptor(name="step", flops=0.1 * TESLA_C2050.effective_gflops * 1e9)


def _run_app(h, replay=False):
    """malloc a, b, c → upload a, b → launch [a, b, c] with b and a
    read-only (b named twice) → optionally replay the journal in place.
    The app never exits, so the journal stays intact."""
    box = {}

    def app():
        fe = h.frontend("app")
        yield from fe.open()
        a = yield from fe.cuda_malloc(16 * MIB)
        b = yield from fe.cuda_malloc(16 * MIB)
        c = yield from fe.cuda_malloc(16 * MIB)
        yield from fe.cuda_memcpy_h2d(a, 16 * MIB)
        yield from fe.cuda_memcpy_h2d(b, 16 * MIB)
        yield from fe.launch_kernel(KERNEL, [a, b, c], read_only=[b, a, b])
        ctx = h.runtime.dispatcher.contexts[0]
        box.update(ctx=ctx, ptrs=(a, b, c), journal=list(ctx.replay_journal))
        if replay:
            yield from h.runtime.dispatcher.replay_journal(ctx)

    h.spawn(app())
    h.run()
    return box


def _device_dirty(memory, ctx, ptrs):
    return [memory.page_table.lookup(ctx, p).to_copy_2swap for p in ptrs]


def test_journal_entry_is_the_dispatchers_record(monkeypatch):
    built = []
    real = dispatcher_module._launch_record

    def spy(*args):
        record = real(*args)
        built.append(record)
        return record

    monkeypatch.setattr(dispatcher_module, "_launch_record", spy)
    h = Harness()
    box = _run_app(h)
    a, b, c = box["ptrs"]
    assert len(built) == 1
    assert box["journal"][-1] is built[-1]
    record = built[-1]
    assert record.arg_pointers == (a, b, c)
    # Request order, repeats kept: the record is not normalised.
    assert record.read_only == (b, a, b)


def test_replay_rejournals_the_same_records():
    h = Harness()
    box = _run_app(h, replay=True)
    ctx = box["ctx"]
    assert h.stats.replayed_kernels == 1
    assert [id(r) for r in ctx.replay_journal] == [id(r) for r in box["journal"]]
    # The read-only inputs stay clean across the replay; only c is
    # device-dirty.
    assert _device_dirty(h.memory, ctx, box["ptrs"]) == [False, False, True]


@pytest.mark.parametrize("form", ["record", "set"])
def test_restart_reads_read_only_as_a_set(form):
    h = Harness()
    box = _run_app(h)
    snap = snapshot_context(h.memory, box["ctx"])
    if form == "set":
        # The form the journal stored before it kept the record itself.
        snap.journal = [
            dataclasses.replace(r, read_only=tuple(set(r.read_only)))
            for r in snap.journal
        ]

    env = Environment()
    driver = CudaDriver(env, [TESLA_C2050])
    runtime = NodeRuntime(env, driver, RuntimeConfig(vgpus_per_device=2))
    env.process(runtime.start())
    env.run(until=1.0)
    ctx = Context(env, owner="restored")
    translation = restore_context(runtime.memory, ctx, snap)
    a, b, c = (translation[p] for p in box["ptrs"])
    (restored,) = ctx.replay_journal
    assert restored.arg_pointers == (a, b, c)
    assert set(restored.read_only) == {a, b}

    def resume():
        yield from runtime.scheduler.request_binding(ctx)
        yield from runtime.dispatcher.replay_journal(ctx)

    env.run(until=env.process(resume()))
    assert driver.devices[0].kernels_executed == 1
    assert _device_dirty(runtime.memory, ctx, (a, b, c)) == [False, False, True]


def test_repeated_launches_share_one_journal_record():
    """2,000 identical launches, with the buffer device-dirty throughout,
    journal 2,000 entries that are one record.  Only the last record is
    compared: an equal launch after a different one is a record of its
    own."""
    h = Harness()
    box = {}

    def app():
        fe = h.frontend("app")
        yield from fe.open()
        a = yield from fe.cuda_malloc(MIB)
        b = yield from fe.cuda_malloc(MIB)
        for _ in range(2000):
            yield from fe.launch_kernel(KERNEL, [a])
        ctx = h.runtime.dispatcher.contexts[0]
        box["repeats"] = list(ctx.replay_journal)
        yield from fe.launch_kernel(KERNEL, [b])
        yield from fe.launch_kernel(KERNEL, [a])
        box["journal"] = list(ctx.replay_journal)

    h.spawn(app())
    h.run()
    repeats, journal = box["repeats"], box["journal"]
    assert len(repeats) == 2000 and len({id(r) for r in repeats}) == 1
    assert len(journal) == 2002 and len({id(r) for r in journal}) == 3
    assert journal[-1] == journal[0] and journal[-1] is not journal[0]

