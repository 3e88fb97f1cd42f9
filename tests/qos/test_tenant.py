"""Tenant identity and the per-node registry (repro.qos.tenant)."""

import pytest

from repro.qos import Tenant, TenantRegistry


def test_tenant_validation():
    with pytest.raises(ValueError):
        Tenant("")
    with pytest.raises(ValueError):
        Tenant("t", weight=0)
    with pytest.raises(ValueError):
        Tenant("t", weight=-1.0)
    with pytest.raises(ValueError):
        Tenant("t", vgpu_share=0.0)
    with pytest.raises(ValueError):
        Tenant("t", vgpu_share=1.5)
    Tenant("t", vgpu_share=1.0)  # inclusive upper bound


def test_attach_detach_idempotent():
    t = Tenant("t")
    ctx = object()
    t.attach(ctx)
    t.attach(ctx)
    assert t.contexts == [ctx]
    t.detach(ctx)
    t.detach(ctx)
    assert t.contexts == []


def test_registry_register_and_lookup():
    reg = TenantRegistry()
    t = reg.register(Tenant("gold", weight=2.0))
    assert reg.get("gold") is t
    assert "gold" in reg
    assert "silver" not in reg
    assert len(reg) == 1
    assert reg.tenants() == [t]
    with pytest.raises(ValueError):
        reg.register(Tenant("gold"))


def test_get_or_create_defaults_unknown_tenants():
    reg = TenantRegistry()
    t = reg.get_or_create("new")
    assert t.weight == 1.0
    assert t.device_quota_bytes is None
    assert reg.get_or_create("new") is t  # same object on repeat


def test_on_register_callback_fires_for_both_paths():
    reg = TenantRegistry()
    seen = []
    reg.on_register = seen.append
    a = reg.register(Tenant("a"))
    b = reg.get_or_create("b")
    reg.get_or_create("b")  # already registered: no second callback
    assert seen == [a, b]


def test_rollup_reports_contract_and_counters():
    reg = TenantRegistry()
    t = reg.register(
        Tenant("gold", weight=2.0, device_quota_bytes=100, deadline_class="interactive")
    )
    t.gpu_seconds_used = 1.5
    t.preemptions = 3
    roll = reg.rollup()
    assert roll["gold"]["weight"] == 2.0
    assert roll["gold"]["deadline_class"] == "interactive"
    assert roll["gold"]["device_quota_bytes"] == 100
    assert roll["gold"]["gpu_seconds"] == 1.5
    assert roll["gold"]["preemptions"] == 3
    assert roll["gold"]["contexts"] == 0
    assert roll["gold"]["device_bytes"] == 0  # no page table given
