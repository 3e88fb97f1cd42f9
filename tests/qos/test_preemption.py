"""Preemptive time-slicing and weighted-fair scheduling (repro.qos)."""

from repro.core import Frontend, RuntimeConfig
from repro.core.context import Context
from repro.core.policies import PolicyContext, make_policy
from repro.qos import Tenant
from repro.sim import Environment
from repro.simcuda import FatBinary, KernelDescriptor, TESLA_C2050

from tests.qos.conftest import Harness, MIB


class _App:
    """kernels x (launch + cpu gap) on one buffer; records span."""

    def __init__(self, h, name, tenant=None, kernels=4, kernel_s=0.3, cpu_s=0.05):
        self.h = h
        self.name = name
        self.tenant = tenant
        self.kernels = kernels
        self.kernel_s = kernel_s
        self.cpu_s = cpu_s
        self.finished_at = None

    def run(self):
        h = self.h
        fe = Frontend(h.env, h.runtime.listener, name=self.name, tenant=self.tenant)
        yield from fe.open()
        fatbin = FatBinary()
        k = KernelDescriptor(
            name=f"{self.name}-k",
            flops=self.kernel_s * TESLA_C2050.effective_gflops * 1e9,
        )
        handle = yield from fe.register_fat_binary(fatbin)
        yield from fe.register_function(handle, k)
        p = yield from fe.cuda_malloc(16 * MIB)
        yield from fe.cuda_memcpy_h2d(p, 16 * MIB)
        for _ in range(self.kernels):
            yield from fe.launch_kernel(k, [p])
            yield h.env.timeout(self.cpu_s)
        yield from fe.cuda_memcpy_d2h(p, 16 * MIB)
        yield from fe.cuda_thread_exit()
        self.finished_at = h.env.now


def _contended_pair(quantum):
    h = Harness(config=RuntimeConfig(
        vgpus_per_device=1, vgpu_quantum_s=quantum,
    ))
    first = _App(h, "first", kernels=6)
    second = _App(h, "second", kernels=2)

    def staged():
        h.spawn(first.run(), name="first")
        yield h.env.timeout(0.1)
        yield from second.run()

    h.spawn(staged(), name="second")
    h.run()
    return h, first, second


def test_quantum_preempts_at_call_boundaries():
    h, first, second = _contended_pair(quantum=0.3)
    assert first.finished_at is not None and second.finished_at is not None
    assert h.stats.preemptions >= 1
    # The short job slips in mid-run instead of waiting for the long one.
    assert second.finished_at < first.finished_at


def test_no_quantum_means_no_preemption():
    h, first, second = _contended_pair(quantum=None)
    assert h.stats.preemptions == 0
    # Run-to-completion: the late short job waits out the long one.
    assert second.finished_at > first.finished_at


def test_quantum_improves_short_job_turnaround():
    _, _, second_sliced = _contended_pair(quantum=0.3)
    _, _, second_fifo = _contended_pair(quantum=None)
    assert second_sliced.finished_at < second_fifo.finished_at


def test_quantum_not_charged_while_unbound():
    """The quantum resets at each binding, so a context rebinding after
    preemption starts a fresh slice rather than being preempted on its
    first post-rebind launch."""
    h, first, _second = _contended_pair(quantum=0.35)
    # 6 kernels x 0.3s with a 0.35s quantum: every kernel would trip an
    # accumulated-time check; a per-binding quantum preempts at most
    # every other launch (two launches ~ 0.6s > 0.35s per slice).
    assert 1 <= h.stats.preemptions <= 6


def test_no_preemption_without_waiters():
    h = Harness(config=RuntimeConfig(vgpus_per_device=1, vgpu_quantum_s=0.1))
    app = _App(h, "solo", kernels=5)
    h.spawn(app.run())
    h.run()
    assert app.finished_at is not None
    assert h.stats.preemptions == 0


def test_preemption_event_carries_tenant_and_usage():
    h = Harness(config=RuntimeConfig(
        vgpus_per_device=1, vgpu_quantum_s=0.3, qos_enabled=True, tracing=True,
    ))
    tenant = h.runtime.qos.register(Tenant("gold"))
    first = _App(h, "first", tenant="gold", kernels=6)
    second = _App(h, "second", kernels=2)

    def staged():
        h.spawn(first.run(), name="first")
        yield h.env.timeout(0.1)
        yield from second.run()

    h.spawn(staged(), name="second")
    h.run()
    from repro.obs import Preemption

    events = h.runtime.obs.events_of(Preemption)
    assert events, "expected at least one Preemption event"
    mine = [e for e in events if e.context == "first"]
    assert mine and mine[0].tenant == "gold"
    assert mine[0].quantum_s == 0.3
    assert mine[0].used_s >= 0.3
    assert tenant.preemptions == len(mine)


def test_default_config_is_inert():
    """With the stock config the QoS machinery exists but never acts."""
    h = Harness()
    h.spawn(h.simple_app("a"))
    h.spawn(h.simple_app("b"))
    h.run()
    assert h.stats.preemptions == 0
    assert h.stats.admission_rejects == 0
    assert h.stats.admission_queued == 0
    assert h.stats.quota_evictions == 0
    assert len(h.runtime.qos) == 0
    assert h.runtime.admission.admitted_count == 0


# ----------------------------------------------------------------------
# weighted-fair queueing
# ----------------------------------------------------------------------

def test_wfq_policy_orders_by_weight_normalized_gpu_time():
    env = Environment()
    policy = make_policy("wfq")
    gold = Tenant("gold", weight=4.0)
    econ = Tenant("econ", weight=1.0)
    gold.gpu_seconds_used = 4.0   # virtual time 1.0
    econ.gpu_seconds_used = 2.0   # virtual time 2.0
    a = Context(env, owner="a")
    a.tenant = gold
    b = Context(env, owner="b")
    b.tenant = econ
    pc = PolicyContext(env)
    assert policy.pick_next([b, a], pc) is a  # lower virtual time wins
    # Tenant-less contexts fall back to their own gpu seconds.
    c = Context(env, owner="c")
    c.gpu_seconds_used = 0.5
    assert policy.pick_next([a, b, c], pc) is c


def test_wfq_favors_heavier_weight_under_contention():
    """Three single-app tenants on one vGPU: at every grant two waiters
    compete, so the wfq ordering actually chooses — and the weight-4
    tenant wins slices it would have had to rotate for at weight 1."""

    def run(gold_weight):
        h = Harness(config=RuntimeConfig(
            vgpus_per_device=1, vgpu_quantum_s=0.3, qos_enabled=True,
            policy="wfq",
        ))
        h.runtime.qos.register(Tenant("econ-a", weight=1.0))
        h.runtime.qos.register(Tenant("econ-b", weight=1.0))
        h.runtime.qos.register(Tenant("gold", weight=gold_weight))
        apps = [
            _App(h, "econ-a-app", tenant="econ-a", kernels=8),
            _App(h, "econ-b-app", tenant="econ-b", kernels=8),
            _App(h, "gold-app", tenant="gold", kernels=8),
        ]
        for i, app in enumerate(apps):
            def staged(app=app, delay=0.01 * i):
                yield h.env.timeout(delay)
                yield from app.run()
            h.spawn(staged(), name=app.name)
        h.run()
        return {a.name: a.finished_at for a in apps}

    weighted = run(gold_weight=4.0)
    assert all(t is not None for t in weighted.values())
    # The weighted tenant beats both equal-demand weight-1 tenants.
    assert weighted["gold-app"] < weighted["econ-a-app"]
    assert weighted["gold-app"] < weighted["econ-b-app"]
    # And beats its own turnaround under equal weights.
    flat = run(gold_weight=1.0)
    assert weighted["gold-app"] < flat["gold-app"]


def test_wfq_aggregates_usage_across_a_tenants_apps():
    """One tenant's two apps share a single virtual clock, so a second
    tenant with one app is favored over either of them even at equal
    weights — per-tenant fairness, not per-context fairness."""
    h = Harness(config=RuntimeConfig(
        vgpus_per_device=1, vgpu_quantum_s=0.3, qos_enabled=True, policy="wfq",
    ))
    h.runtime.qos.register(Tenant("pair", weight=1.0))
    h.runtime.qos.register(Tenant("solo", weight=1.0))
    apps = [
        _App(h, "pair-1", tenant="pair", kernels=8),
        _App(h, "pair-2", tenant="pair", kernels=8),
        _App(h, "solo-1", tenant="solo", kernels=8),
    ]
    for i, app in enumerate(apps):
        def staged(app=app, delay=0.01 * i):
            yield h.env.timeout(delay)
            yield from app.run()
        h.spawn(staged(), name=app.name)
    h.run()
    assert apps[2].finished_at < apps[0].finished_at
    assert apps[2].finished_at < apps[1].finished_at
