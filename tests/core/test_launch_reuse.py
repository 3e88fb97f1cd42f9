"""A repeated ``cudaLaunch`` reuses its launch record and its translation.

The dispatcher hands a launch that repeats the context's last one the
same record, and the memory manager reuses that record's translation
(its entries and the device-pointer record) while the page table's
translation epoch is unchanged.  Every test below runs under
:class:`LaunchProbe`, which checks each launch the driver receives
against a fresh resolution of its record at that moment: a stale reuse
after ``cudaFree``, a swap-out, a migration or a nested registration
would hand the driver the old device pointers.
"""

import pytest

from repro.core import RuntimeConfig
from repro.core.errors import RuntimeApiError, RuntimeErrorCode
from repro.core.memory.manager import MemoryManager
from repro.core.vgpu import VirtualGPU
from repro.experiments.harness import run_node_batch
from repro.simcuda import KernelDescriptor, TESLA_C1060, TESLA_C2050
from repro.simcuda.kernels import KernelLaunch

from tests.core.conftest import Harness, MIB
from tests.core.test_golden_sweep import CONFIGS, MIXES

KERNEL = KernelDescriptor(name="step", flops=0.01 * TESLA_C2050.effective_gflops * 1e9)


class LaunchProbe:
    """Spies on the launch path for the length of a test.

    ``resolutions`` counts the memory manager's own translations,
    ``reused`` the launches that ran on a reused one, and
    ``device_pointers`` lists what the driver received per launch, each
    checked against a fresh resolution of the record being launched:
    all entries resident, at exactly their current device pointers.
    """

    def __init__(self, monkeypatch):
        self.resolutions = 0
        self.reused = 0
        self.device_pointers = []
        resolve = MemoryManager._resolve_launch_entries
        prepare = MemoryManager.prepare_and_launch
        vgpu_launch = VirtualGPU.launch
        running = {}

        def counting_resolve(memory, ctx, vptrs):
            self.resolutions += 1
            running[ctx][2] = True
            return resolve(memory, ctx, vptrs)

        def noting_prepare(memory, ctx, launch, control_plane=True):
            running[ctx] = [memory, launch, False]
            return prepare(memory, ctx, launch, control_plane)

        def checking_launch(vgpu, translated):
            ctx = vgpu.bound_context
            memory, record, resolved = running[ctx]
            self.reused += not resolved
            ptes = resolve(memory, ctx, record.arg_pointers)[0]
            assert all(p.is_allocated for p in ptes)
            assert translated.arg_pointers == tuple(p.device_ptr for p in ptes)
            assert translated.kernel is record.kernel
            self.device_pointers.append(translated.arg_pointers)
            return vgpu_launch(vgpu, translated)

        monkeypatch.setattr(MemoryManager, "_resolve_launch_entries", counting_resolve)
        monkeypatch.setattr(MemoryManager, "prepare_and_launch", noting_prepare)
        monkeypatch.setattr(VirtualGPU, "launch", checking_launch)


@pytest.fixture
def probe(monkeypatch):
    return LaunchProbe(monkeypatch)


def _run(h, app):
    box = {}
    process = h.spawn(app(box))
    h.run()
    assert process.ok, process.value
    return box


def _open(h, box):
    fe = h.frontend("app")
    yield from fe.open()
    box["ctx"] = h.contexts[-1]
    return fe


def _buffer(fe, size=16 * MIB):
    ptr = yield from fe.cuda_malloc(size)
    yield from fe.cuda_memcpy_h2d(ptr, size)
    return ptr


def test_repeated_launch_reuses_record_and_translation(probe):
    h = Harness()

    def app(box):
        fe = yield from _open(h, box)
        a = yield from _buffer(fe)
        b = yield from _buffer(fe)
        for _ in range(5):
            yield from fe.launch_kernel(KERNEL, [a, b], read_only=[b])
        box["ptrs"] = (a, b)
        box["journal"] = list(box["ctx"].replay_journal)

    box = _run(h, app)
    assert probe.resolutions == 1
    assert len(probe.device_pointers) == 5
    journal = box["journal"]
    assert len(journal) == 5 and all(record is journal[0] for record in journal)
    # The journal equals one built from a fresh record per launch.
    a, b = box["ptrs"]
    fresh = KernelLaunch(KERNEL, (1, 1, 1), (256, 1, 1), (a, b), (b,))
    assert journal == [fresh] * 5


def test_changed_arguments_or_configuration_get_a_fresh_record(probe):
    h = Harness()

    def app(box):
        fe = yield from _open(h, box)
        a = yield from _buffer(fe)
        b = yield from _buffer(fe)
        yield from fe.launch_kernel(KERNEL, [a, b])
        yield from fe.launch_kernel(KERNEL, [a, b], grid=(2, 1, 1))
        yield from fe.launch_kernel(KERNEL, [a, b], grid=(2, 1, 1), read_only=[a])
        yield from fe.launch_kernel(KERNEL, [b, a], grid=(2, 1, 1), read_only=[a])
        box["ptrs"] = (a, b)
        box["journal"] = list(box["ctx"].replay_journal)

    box = _run(h, app)
    a, b = box["ptrs"]
    assert box["journal"] == [
        KernelLaunch(KERNEL, (1, 1, 1), (256, 1, 1), (a, b), None),
        KernelLaunch(KERNEL, (2, 1, 1), (256, 1, 1), (a, b), None),
        KernelLaunch(KERNEL, (2, 1, 1), (256, 1, 1), (a, b), (a,)),
        KernelLaunch(KERNEL, (2, 1, 1), (256, 1, 1), (b, a), (a,)),
    ]
    assert probe.resolutions == 4


def test_launch_after_free_and_remalloc_sees_fresh_translations(probe):
    h = Harness()

    def app(box):
        fe = yield from _open(h, box)
        a = yield from _buffer(fe)
        b = yield from _buffer(fe)
        yield from fe.launch_kernel(KERNEL, [a, b])
        yield from fe.launch_kernel(KERNEL, [a, b])
        old_b = h.memory.page_table.lookup(box["ctx"], b).device_ptr
        yield from fe.cuda_free(b)
        box["errors"] = []

        def launch_freed():
            # The arguments of the launches before the free: b is gone.
            try:
                yield from fe.launch_kernel(KERNEL, [a, b])
            except RuntimeApiError as exc:
                box["errors"].append(exc.code)

        yield from launch_freed()  # the context's last record, repeated
        c = yield from _buffer(fe)
        yield from fe.launch_kernel(KERNEL, [a, c])
        box["reused_address"] = (
            h.memory.page_table.lookup(box["ctx"], c).device_ptr == old_b
        )
        yield from launch_freed()
        yield from fe.launch_kernel(KERNEL, [a, c])

    box = _run(h, app)
    # c took b's freed device block, so a stale translation of [a, b]
    # would have run on c's memory.
    assert box["reused_address"]
    assert box["errors"] == [RuntimeErrorCode.NO_VALID_PTE] * 2
    assert len(probe.device_pointers) == 4


def test_launch_after_a_swap_out_sees_fresh_translations(probe):
    h = Harness()

    def app(box):
        fe = yield from _open(h, box)
        ctx = box["ctx"]
        a = yield from _buffer(fe)
        yield from fe.launch_kernel(KERNEL, [a])
        yield from fe.launch_kernel(KERNEL, [a])
        old = h.memory.page_table.lookup(ctx, a).device_ptr
        yield ctx.lock.acquire()
        vgpu = ctx.vgpu
        yield from h.memory.unbind(ctx, "test")
        ctx.lock.release()
        # Occupy the freed block, so that a's fault-in lands elsewhere.
        blocker = yield from vgpu.malloc(16 * MIB)
        yield from fe.launch_kernel(KERNEL, [a])
        yield from fe.launch_kernel(KERNEL, [a])
        box["moved"] = (old, h.memory.page_table.lookup(ctx, a).device_ptr)
        yield from vgpu.free(blocker)

    box = _run(h, app)
    old, new = box["moved"]
    assert old != new
    assert probe.device_pointers == [(old,), (old,), (new,), (new,)]
    assert probe.resolutions == 2


@pytest.mark.parametrize("p2p", [False, True], ids=["swap", "p2p"])
def test_launch_after_a_migration_sees_fresh_translations(probe, p2p):
    h = Harness(
        specs=[TESLA_C2050, TESLA_C1060],
        config=RuntimeConfig(vgpus_per_device=1, cuda4_semantics=p2p),
    )

    def app(box):
        fe = yield from _open(h, box)
        ctx = box["ctx"]
        a = yield from _buffer(fe)
        yield from fe.launch_kernel(KERNEL, [a])
        yield from fe.launch_kernel(KERNEL, [a])
        src = ctx.vgpu
        (dst,) = [v for v in h.scheduler.vgpus if v.device is not src.device]
        yield from h.runtime.migration._migrate(ctx, dst)
        box["devices"] = (src.device, ctx.vgpu.device)
        yield from fe.launch_kernel(KERNEL, [a])
        yield from fe.launch_kernel(KERNEL, [a])

    box = _run(h, app)
    src, dst = box["devices"]
    assert src is not dst
    assert h.stats.migrations == 1
    assert h.stats.migrations_p2p == int(p2p)
    assert len(probe.device_pointers) == 4
    assert probe.resolutions == 2


def test_launch_after_register_nested_sees_the_members(probe):
    h = Harness()

    def app(box):
        fe = yield from _open(h, box)
        parent = yield from _buffer(fe, 1 * MIB)
        member = yield from _buffer(fe)
        yield from fe.launch_kernel(KERNEL, [parent])
        yield from fe.launch_kernel(KERNEL, [parent])
        yield from fe.register_nested(parent, [member], [0])
        yield from fe.launch_kernel(KERNEL, [parent])
        box["member"] = h.memory.page_table.lookup(box["ctx"], member)

    box = _run(h, app)
    assert box["member"].is_allocated
    assert [len(p) for p in probe.device_pointers] == [1, 1, 2]
    assert probe.resolutions == 2


@pytest.mark.parametrize("mix", MIXES)
@pytest.mark.parametrize("config", CONFIGS)
def test_every_golden_sweep_launch_runs_on_fresh_translations(probe, config, mix):
    """Both mixes under every feature config: swaps, partial evictions,
    retained caches, migrations, checkpoints and batches between launches
    (the hetero mix reuses a translation in all but two configs)."""
    jobs, gpus, vgpus = MIXES[mix]()
    result = run_node_batch(
        jobs, gpus, RuntimeConfig(vgpus_per_device=vgpus, **CONFIGS[config])
    )
    assert result.errors == 0
    assert len(probe.device_pointers) >= result.stats["kernels_launched"]
