"""RuntimeEstimator and the history-driven policies (sjf_est,
fairshare)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimator import RuntimeEstimator
from repro.core.policies import (
    POLICY_NAMES,
    EstimatorSjfPolicy,
    FairSharePolicy,
    PolicyContext,
    make_policy,
)
from repro.qos.tenant import Tenant


class FakeEnv:
    def __init__(self, now=0.0):
        self.now = now


class FakeCtx:
    _seq = iter(range(10000))

    def __init__(self, tenant=None, gpu_seconds_used=0.0,
                 estimated_gpu_seconds=None):
        self.context_id = next(self._seq)
        self.tenant = tenant
        self.gpu_seconds_used = gpu_seconds_used
        self.estimated_gpu_seconds = estimated_gpu_seconds


class FakeRegistry:
    def __init__(self, tenants):
        self._tenants = tenants

    def tenants(self):
        return list(self._tenants)


def pc(now=100.0, estimator=None, tenants=None):
    return PolicyContext(
        FakeEnv(now),
        estimator=estimator,
        tenants=FakeRegistry(tenants) if tenants is not None else None,
    )


class TestRuntimeEstimator:
    def test_cold_start_none(self):
        assert RuntimeEstimator().predict("alice") is None

    def test_user_history_wins(self):
        est = RuntimeEstimator(min_samples=2)
        for _ in range(3):
            est.observe("alice", 10.0, group="ml")
            est.observe("bob", 1.0, group="web")
        assert est.predict("alice") == pytest.approx(10.0)
        assert est.predict("bob") == pytest.approx(1.0)

    def test_group_fallback_for_cold_user(self):
        est = RuntimeEstimator(min_samples=2)
        for _ in range(4):
            est.observe("alice", 8.0, group="ml")
        # carol has no history; her group does.
        assert est.predict("carol", group="ml") == pytest.approx(8.0)

    def test_global_fallback(self):
        est = RuntimeEstimator()
        est.observe("alice", 4.0)
        assert est.predict("nobody", group="nogroup") == pytest.approx(4.0)

    def test_ewma_tracks_drift(self):
        est = RuntimeEstimator(alpha=0.5, min_samples=1)
        est.observe("u", 10.0)
        est.observe("u", 0.0)
        assert est.predict("u") == pytest.approx(5.0)

    def test_negative_sample_ignored(self):
        est = RuntimeEstimator()
        est.observe("u", -1.0)
        assert est.observations == 0

    def test_predict_for_uses_tenant(self):
        est = RuntimeEstimator(min_samples=1)
        est.observe("alice", 7.0)
        ctx = FakeCtx(tenant=Tenant("alice"))
        assert est.predict_for(ctx) == pytest.approx(7.0)


class TestRegistration:
    def test_new_policies_registered(self):
        for name in ("sjf_est", "fairshare"):
            assert name in POLICY_NAMES
        for name in POLICY_NAMES:
            assert make_policy(name).name == name


class TestEstimatorSjf:
    def test_prefers_predicted_short(self):
        est = RuntimeEstimator(min_samples=1)
        est.observe("short", 1.0)
        est.observe("short", 1.0)
        est.observe("long", 50.0)
        est.observe("long", 50.0)
        a = FakeCtx(tenant=Tenant("long"))
        b = FakeCtx(tenant=Tenant("short"))
        assert EstimatorSjfPolicy().pick_next([a, b], pc(estimator=est)) is b

    def test_remaining_discounts_used_time(self):
        est = RuntimeEstimator(min_samples=1)
        est.observe("u", 10.0)
        est.observe("v", 10.0)
        nearly_done = FakeCtx(tenant=Tenant("u"), gpu_seconds_used=9.5)
        fresh = FakeCtx(tenant=Tenant("v"), gpu_seconds_used=0.0)
        picked = EstimatorSjfPolicy().pick_next([fresh, nearly_done], pc(estimator=est))
        assert picked is nearly_done

    def test_cold_start_falls_back_to_hint_then_fcfs(self):
        hinted = FakeCtx(estimated_gpu_seconds=2.0)
        unhinted = FakeCtx()
        picked = EstimatorSjfPolicy().pick_next(
            [unhinted, hinted], pc(estimator=RuntimeEstimator())
        )
        assert picked is hinted

    def test_empty_queue(self):
        assert EstimatorSjfPolicy().pick_next([], pc()) is None


class TestFairShare:
    def test_lighter_user_first(self):
        policy = FairSharePolicy()
        heavy = Tenant("heavy", group="g1")
        light = Tenant("light", group="g1")
        heavy.gpu_seconds_used = 100.0
        light.gpu_seconds_used = 1.0
        a = FakeCtx(tenant=heavy)
        b = FakeCtx(tenant=light)
        assert policy.pick_next([a, b], pc(tenants=[heavy, light])) is b

    def test_group_level_dominates(self):
        policy = FairSharePolicy()
        # g1 as a group consumed more, even though the g1 waiter itself
        # is lighter than the g2 waiter.
        g1a = Tenant("g1a", group="g1")
        g1b = Tenant("g1b", group="g1")
        g2a = Tenant("g2a", group="g2")
        g1a.gpu_seconds_used = 1.0
        g1b.gpu_seconds_used = 100.0
        g2a.gpu_seconds_used = 5.0
        assert policy.pick_next(
            [FakeCtx(tenant=g1a), FakeCtx(tenant=g2a)], pc(tenants=[g1a, g1b, g2a])
        ).tenant is g2a

    def test_usage_decays(self):
        policy = FairSharePolicy(half_life_s=10.0)
        old_heavy = Tenant("old", group="g1")
        recent = Tenant("recent", group="g2")
        old_heavy.gpu_seconds_used = 100.0
        recent.gpu_seconds_used = 0.0
        tenants = [old_heavy, recent]
        # Observe the usage at t=0, then let 20 half-lives pass while
        # `recent` consumes a little.
        policy.pick_next([FakeCtx(tenant=old_heavy)], pc(0.0, tenants=tenants))
        recent.gpu_seconds_used = 5.0
        picked = policy.pick_next(
            [FakeCtx(tenant=old_heavy), FakeCtx(tenant=recent)],
            pc(200.0, tenants=tenants),
        )
        assert picked.tenant is old_heavy

    def test_no_decay_when_disabled(self):
        policy = FairSharePolicy(half_life_s=0.0)
        heavy = Tenant("h", group="g1")
        light = Tenant("l", group="g2")
        heavy.gpu_seconds_used = 100.0
        light.gpu_seconds_used = 1.0
        tenants = [heavy, light]
        policy.pick_next([FakeCtx(tenant=heavy)], pc(0.0, tenants=tenants))
        picked = policy.pick_next(
            [FakeCtx(tenant=heavy), FakeCtx(tenant=light)],
            pc(1000.0, tenants=tenants),
        )
        assert picked.tenant is light

    def test_tenantless_context_uses_own_usage(self):
        policy = FairSharePolicy()
        a = FakeCtx(gpu_seconds_used=5.0)
        b = FakeCtx(gpu_seconds_used=1.0)
        assert policy.pick_next([a, b], pc(tenants=[])) is b


def _weighted_fair_key(c):
    """Reference: the key of the standalone weighted-fair policy that
    ``wfq`` replaced (tenant usage per unit weight, then the context's
    own usage, then arrival order)."""
    tenant = c.tenant
    vt = tenant.gpu_seconds_used / tenant.weight if tenant is not None else c.gpu_seconds_used
    return (vt, c.gpu_seconds_used, c.context_id)


# Small pools make ties (equal usage, equal weight) likely.
_usage = st.one_of(st.sampled_from([0.0, 1.0, 2.0, 4.0]),
                   st.floats(0.0, 100.0, allow_nan=False))
_weight = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 4.0]),
                    st.floats(0.1, 10.0, allow_nan=False))


class TestWfqIsWeightedFairShare:
    @settings(max_examples=200, deadline=None)
    @given(
        tenants=st.lists(
            st.tuples(_weight, _usage, st.sampled_from([None, "g1", "g2"])),
            min_size=1, max_size=4,
        ),
        waiters=st.lists(
            st.tuples(st.integers(-1, 3), _usage), min_size=1, max_size=8
        ),
    )
    def test_wfq_picks_like_the_weighted_fair_key(self, tenants, waiters):
        registry = []
        for i, (weight, used, group) in enumerate(tenants):
            t = Tenant(f"t{i}", weight=weight, group=group)
            t.gpu_seconds_used = used
            registry.append(t)
        waiting = []
        for index, used in waiters:
            tenant = registry[index] if 0 <= index < len(registry) else None
            waiting.append(FakeCtx(tenant=tenant, gpu_seconds_used=used))
        picked = make_policy("wfq").pick_next(waiting, pc(tenants=registry))
        assert picked is min(waiting, key=_weighted_fair_key)
