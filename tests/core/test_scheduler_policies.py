"""Scheduler + scheduling-policy tests (paper §2 Configurable Scheduling)."""

import pytest

from repro.core import RuntimeConfig
from repro.core.policies import (
    CreditPolicy, FcfsPolicy, PolicyContext, SjfPolicy, make_policy,
)
from repro.simcuda import KernelDescriptor, QUADRO_2000, TESLA_C1060, TESLA_C2050

from tests.core.conftest import Harness, MIB


def kernel(seconds, name="k"):
    return KernelDescriptor(
        name=name, flops=seconds * TESLA_C2050.effective_gflops * 1e9
    )


def job(h, name, kernel_s, results, kernels=1, estimated=None):
    def app():
        fe = h.frontend(name, estimated_gpu_seconds=estimated)
        yield from fe.open()
        k = kernel(kernel_s, f"{name}-k")
        a = yield from fe.cuda_malloc(8 * MIB)
        for _ in range(kernels):
            yield from fe.launch_kernel(k, [a])
        yield from fe.cuda_thread_exit()
        results.append(name)

    return app()


# ---------------------------------------------------------------------------
# policy factory + units
# ---------------------------------------------------------------------------

def test_make_policy():
    assert isinstance(make_policy("fcfs"), FcfsPolicy)
    assert isinstance(make_policy("sjf"), SjfPolicy)
    assert isinstance(make_policy("credit"), CreditPolicy)
    with pytest.raises(ValueError):
        make_policy("nope")


def test_config_validates_policy():
    with pytest.raises(ValueError):
        RuntimeConfig(policy="wrong")
    with pytest.raises(ValueError):
        RuntimeConfig(vgpus_per_device=0)


# ---------------------------------------------------------------------------
# FCFS + load balancing placement
# ---------------------------------------------------------------------------

def test_fcfs_order_preserved():
    h = Harness(config=RuntimeConfig(vgpus_per_device=1))
    done = []
    for name in ("first", "second", "third"):
        h.spawn(job(h, name, kernel_s=0.5, results=done))
    h.run()
    assert done == ["first", "second", "third"]


def test_placement_balances_active_vgpus_across_gpus():
    """The paper's FCFS keeps active vGPU counts uniform across GPUs."""
    h = Harness(
        specs=[TESLA_C2050, TESLA_C2050, TESLA_C1060],
        config=RuntimeConfig(vgpus_per_device=2),
    )
    done = []
    for i in range(3):
        h.spawn(job(h, f"j{i}", kernel_s=2.0, results=done))
    # Run long enough for all three to be bound but none finished.
    h.run(until=2.0)
    counts = h.scheduler.active_per_device()
    assert len(counts) == 3  # one job per physical GPU
    assert set(counts.values()) == {1}
    h.run()
    assert len(done) == 3


def test_waiting_contexts_served_when_vgpu_frees():
    h = Harness(config=RuntimeConfig(vgpus_per_device=2))
    done = []
    for i in range(5):
        h.spawn(job(h, f"j{i}", kernel_s=0.3, results=done))
    h.run()
    assert len(done) == 5
    assert h.stats.bindings == 5


# ---------------------------------------------------------------------------
# SJF
# ---------------------------------------------------------------------------

def test_sjf_prefers_short_jobs_from_waiting_list():
    h = Harness(config=RuntimeConfig(vgpus_per_device=1, policy="sjf"))
    done = []

    def submit():
        # A long job takes the single vGPU; three more queue up.
        h.spawn(job(h, "long0", kernel_s=1.0, results=done, estimated=1.0))
        yield h.env.timeout(0.9)  # let long0 bind (vGPU startup ~0.08s)
        h.spawn(job(h, "big", kernel_s=0.6, results=done, estimated=0.6))
        h.spawn(job(h, "small", kernel_s=0.1, results=done, estimated=0.1))
        h.spawn(job(h, "mid", kernel_s=0.3, results=done, estimated=0.3))

    h.spawn(submit())
    h.run()
    assert done[0] == "long0"
    assert done[1:] == ["small", "mid", "big"]


# ---------------------------------------------------------------------------
# credit-based
# ---------------------------------------------------------------------------

def test_credit_policy_favours_low_usage_context():
    """When contexts contend for the single vGPU (the CPU-phase reaper
    unbinds them between phases), the one with less consumed GPU time is
    served first — the light job is not starved behind the heavy one."""
    h = Harness(
        config=RuntimeConfig(
            vgpus_per_device=1, policy="credit", unbind_on_cpu_phase_s=0.005
        )
    )
    order = []

    def multi_phase(name, kernel_s, phases):
        def app():
            fe = h.frontend(name)
            yield from fe.open()
            k = kernel(kernel_s, f"{name}-k")
            a = yield from fe.cuda_malloc(4 * MIB)
            for i in range(phases):
                yield from fe.launch_kernel(k, [a])
                order.append((name, i))
                yield h.env.timeout(0.05)  # CPU phase: reaper can unbind
            yield from fe.cuda_thread_exit()

        return app()

    h.spawn(multi_phase("heavy", 0.5, 3))
    h.spawn(multi_phase("light", 0.05, 3))
    h.run()
    # The light job's phases interleave with the heavy job's rather than
    # queueing entirely behind them.
    first_light = min(i for i, (n, _p) in enumerate(order) if n == "light")
    last_heavy = max(i for i, (n, _p) in enumerate(order) if n == "heavy")
    assert first_light < last_heavy


def test_credit_pick_next_orders_by_consumed_gpu_time():
    from repro.core.context import Context
    from repro.sim import Environment

    env = Environment()
    a, b, c = Context(env, "a"), Context(env, "b"), Context(env, "c")
    a.gpu_seconds_used = 5.0
    b.gpu_seconds_used = 0.5
    c.gpu_seconds_used = 2.0
    policy, pc = CreditPolicy(), PolicyContext(env)
    assert policy.pick_next([a, b, c], pc) is b
    assert policy.pick_next([], pc) is None


def test_sjf_pick_next_unknown_estimates_go_last():
    from repro.core.context import Context
    from repro.sim import Environment

    env = Environment()
    known = Context(env, "known")
    known.estimated_gpu_seconds = 3.0
    unknown = Context(env, "unknown")
    assert SjfPolicy().pick_next([unknown, known], PolicyContext(env)) is known


# ---------------------------------------------------------------------------
# binding bookkeeping
# ---------------------------------------------------------------------------

def test_bindings_and_unbindings_balance_at_quiescence():
    h = Harness(config=RuntimeConfig(vgpus_per_device=2))
    done = []
    for i in range(4):
        h.spawn(job(h, f"j{i}", kernel_s=0.2, results=done))
    h.run()
    assert h.stats.bindings == h.stats.unbindings == 4
    assert all(v.idle for v in h.scheduler.vgpus)


def test_exit_while_waiting_cancels_cleanly():
    """A job that exits before ever being granted a vGPU must not leave a
    dangling waiting entry."""
    h = Harness(config=RuntimeConfig(vgpus_per_device=1))
    done = []

    def impatient():
        fe = h.frontend("impatient")
        yield from fe.open()
        a = yield from fe.cuda_malloc(MIB)
        # Exits without ever launching: never requests a binding.
        yield from fe.cuda_free(a)
        yield from fe.cuda_thread_exit()
        done.append("impatient")

    h.spawn(job(h, "worker", kernel_s=0.5, results=done))
    h.spawn(impatient())
    h.run()
    assert set(done) == {"worker", "impatient"}
    assert h.scheduler.waiting_count == 0
