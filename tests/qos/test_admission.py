"""Admission control at the handshake (repro.qos.admission)."""

from repro.core import Frontend, RuntimeConfig
from repro.qos import Tenant

from tests.qos.conftest import Harness


def _open_app(h, name, tenant=None, hold_s=1.0, results=None):
    """Open, idle for ``hold_s``, exit.  Records open/finish times."""

    def app():
        fe = Frontend(h.env, h.runtime.listener, name=name, tenant=tenant)
        yield from fe.open()
        if results is not None:
            results[name] = {"opened": h.env.now}
        yield h.env.timeout(hold_s)
        yield from fe.cuda_thread_exit()
        if results is not None:
            results[name]["finished"] = h.env.now

    return h.spawn(app(), name=name)


def test_queue_mode_blocks_until_slot_frees():
    h = Harness(config=RuntimeConfig(qos_enabled=True))
    tenant = h.runtime.qos.register(Tenant("gold", max_concurrent_contexts=1))
    results, live_while_queued = {}, []
    _open_app(h, "a1", tenant="gold", hold_s=2.0, results=results)

    def late():
        yield h.env.timeout(0.5)
        _open_app(h, "a2", tenant="gold", hold_s=0.1, results=results)
        yield h.env.timeout(0.5)
        live_while_queued.extend(c.owner for c in tenant.contexts)

    h.spawn(late())
    h.run()
    # a2's handshake waited for a1's exit before completing.
    assert results["a2"]["opened"] >= results["a1"]["finished"]
    assert h.stats.admission_queued == 1
    # The queued context joined the tenant's live list only once admitted.
    assert live_while_queued == ["a1"]


def test_qos_disabled_ignores_caps():
    """Default config: tenants may be named but nothing is enforced."""
    h = Harness()  # qos_enabled=False
    h.runtime.qos.register(Tenant("gold", max_concurrent_contexts=1))
    results = {}
    _open_app(h, "a1", tenant="gold", hold_s=1.0, results=results)
    _open_app(h, "a2", tenant="gold", hold_s=1.0, results=results)
    h.run()
    # Both opened immediately, concurrently, with no queueing.
    assert results["a1"]["opened"] < 0.5
    assert results["a2"]["opened"] < 0.5
    assert h.stats.admission_queued == 0


def test_tenantless_connections_bypass_admission():
    h = Harness(config=RuntimeConfig(qos_enabled=True))
    h.runtime.qos.register(Tenant("gold", max_concurrent_contexts=1))
    results = {}
    _open_app(h, "a1", hold_s=1.0, results=results)
    _open_app(h, "a2", hold_s=1.0, results=results)
    h.run()
    # Both opened at once: no tenant, no cap to queue behind.
    assert results["a1"]["opened"] < 0.5
    assert results["a2"]["opened"] < 0.5
    assert h.stats.admission_queued == 0
    assert h.runtime.admission.admitted_count == 0


def test_admission_events_and_gauge(harness):
    h = Harness(config=RuntimeConfig(qos_enabled=True, tracing=True))
    h.runtime.qos.register(Tenant("gold", max_concurrent_contexts=1))
    results = {}
    _open_app(h, "a1", tenant="gold", hold_s=1.0, results=results)

    def late():
        yield h.env.timeout(0.2)
        _open_app(h, "a2", tenant="gold", hold_s=0.1, results=results)

    h.spawn(late())
    h.run()
    from repro.obs import TenantAdmission

    events = h.runtime.obs.events_of(TenantAdmission)
    decisions = [e.decision for e in events]
    assert decisions.count("admitted") == 2
    assert decisions.count("queued") == 1
    waited = [e for e in events if e.decision == "admitted" and e.waited_s > 0]
    assert len(waited) == 1 and waited[0].context == "a2"
    # All slots returned at exit.
    assert h.runtime.admission.admitted_count == 0
