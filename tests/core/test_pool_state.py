"""The maintained pool and page-table state equals a fresh rescan.

The scheduler keeps its vGPU pool state as counts (usable vGPUs, bound
vGPUs per device, each device's vGPUs in pool order) and the page table
keeps per-context byte totals, each updated where it changes.  These
tests re-derive all of it from scratch after every ``VirtualGPU.bind``
and ``unbind`` — the choke point every grant, migration and recovery
crosses — over the golden sweep's runs, device failure and removal, and
migration.
"""

import pytest

from repro.core import RuntimeConfig
from repro.core.fault import FailureInjector, HotplugEvent
from repro.core.runtime import NodeRuntime
from repro.core.vgpu import VirtualGPU
from repro.simcuda import TESLA_C1060, TESLA_C2050

from tests.core.conftest import Harness
from tests.core.test_fault_tolerance import iterative_app
from tests.core.test_golden_sweep import KEYS, REPLAYS, _run_mix, _run_replay
from tests.core.test_migration import phased_job, unbalanced_harness


def _audit(runtime):
    scheduler = runtime.scheduler
    vgpus = scheduler.vgpus
    assert scheduler.total_vgpus == sum(1 for v in vgpus if not v.retired)
    active = {}
    for v in vgpus:
        if v.bound_context is not None:
            active[v.device.device_id] = active.get(v.device.device_id, 0) + 1
    assert scheduler.active_per_device() == active
    assert scheduler.idle_vgpus() == [v for v in vgpus if v.idle and not v.reserved]
    for device in {v.device for v in vgpus}:
        assert scheduler.bound_contexts_on(device) == [
            v.bound_context
            for v in vgpus
            if v.device is device and v.bound_context is not None
        ]
    page_table = runtime.memory.page_table
    for ctx in page_table.contexts():
        entries = page_table.entries_for(ctx)
        assert page_table.total_bytes(ctx) == sum(p.size for p in entries)
        assert page_table.allocated_bytes(ctx) == sum(
            p.size for p in entries if p.is_allocated
        )


@pytest.fixture
def audits(monkeypatch):
    """Audit the vGPU's node after every bind and unbind; yields the
    number of audits made so far (a one-item list)."""
    runtimes = []
    made = [0]
    init = NodeRuntime.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runtimes.append(self)

    monkeypatch.setattr(NodeRuntime, "__init__", tracked_init)
    for name in ("bind", "unbind"):
        def audited(self, *args, _original=getattr(VirtualGPU, name), **kwargs):
            _original(self, *args, **kwargs)
            _audit(next(r for r in runtimes if r.scheduler.counts is self.counts))
            made[0] += 1

        monkeypatch.setattr(VirtualGPU, name, audited)
    return made


@pytest.mark.parametrize("key", KEYS)
def test_golden_sweep_runs_keep_state_consistent(audits, key):
    config, _, mix = key.partition("/")
    if config in REPLAYS:
        _run_replay(config)
    else:
        _run_mix(config, mix)
    assert audits[0] > 0


def test_device_failure_and_removal_keep_state_consistent(audits):
    h = Harness(specs=[TESLA_C2050, TESLA_C1060, TESLA_C2050],
                config=RuntimeConfig(vgpus_per_device=2))
    results = {}
    for i in range(6):
        h.spawn(iterative_app(h, f"j{i}", results, kernels=6, kernel_s=0.4, cpu_s=0.2))
    FailureInjector(h.runtime, [HotplugEvent(at_seconds=1.2, action="fail",
                                             device_index=0)]).start()

    def downgrade():
        yield h.env.timeout(2.5)
        yield from h.runtime.remove_device_gracefully(h.driver.devices[1])

    h.spawn(downgrade())
    h.run()
    assert len(results) == 6
    assert h.stats.failures_recovered >= 1
    assert h.scheduler.total_vgpus == 2
    assert audits[0] > 0
    _audit(h.runtime)


def test_migration_keeps_state_consistent(audits):
    h = unbalanced_harness()
    results = {}
    h.spawn(phased_job(h, "short", results, kernels=2, kernel_s=0.3, cpu_s=0.1))
    h.spawn(phased_job(h, "long", results, kernels=8, kernel_s=0.5, cpu_s=0.5))
    h.run()
    assert set(results) == {"short", "long"}
    assert h.stats.migrations >= 1
    assert audits[0] > 0
    _audit(h.runtime)
