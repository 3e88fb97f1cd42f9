"""EDF (deadline) policy tests — the §2 QoS scheduling hook."""

from repro.core import RuntimeConfig
from repro.core.context import Context
from repro.core.policies import DeadlinePolicy, PolicyContext, make_policy
from repro.sim import Environment
from repro.simcuda import KernelDescriptor, TESLA_C2050

from tests.core.conftest import Harness, MIB


def test_make_policy_edf():
    assert isinstance(make_policy("edf"), DeadlinePolicy)


def test_pick_next_earliest_deadline_first():
    env = Environment()
    a, b, c = Context(env, "a"), Context(env, "b"), Context(env, "c")
    a.deadline_s = 100.0
    b.deadline_s = 50.0
    # c has no deadline: goes last
    policy, pc = DeadlinePolicy(), PolicyContext(env)
    assert policy.pick_next([a, b, c], pc) is b
    assert policy.pick_next([a, c], pc) is a
    assert policy.pick_next([c], pc) is c
    assert policy.pick_next([], pc) is None


def test_edf_end_to_end_prefers_urgent_job():
    h = Harness(config=RuntimeConfig(vgpus_per_device=1, policy="edf"))
    order = []

    def job(name, deadline, delay):
        def app():
            yield h.env.timeout(delay)
            fe = h.frontend(name)
            fe.deadline_s = deadline
            yield from fe.open()
            seconds = 3.0 if name == "blocker" else 0.5
            k = KernelDescriptor(
                name=f"{name}-k", flops=seconds * TESLA_C2050.effective_gflops * 1e9
            )
            a = yield from fe.cuda_malloc(4 * MIB)
            yield from fe.launch_kernel(k, [a])
            yield from fe.cuda_thread_exit()
            order.append(name)

        return app()

    # "blocker" binds first; the others queue while it runs.  EDF must
    # serve "urgent" (deadline 10) before "relaxed" (deadline 100) and
    # "nodeadline", regardless of arrival order.
    h.spawn(job("blocker", None, delay=0.0))
    h.spawn(job("nodeadline", None, delay=1.0))
    h.spawn(job("relaxed", 100.0, delay=1.1))
    h.spawn(job("urgent", 10.0, delay=1.2))
    h.run()
    assert order[0] == "blocker"
    assert order[1] == "urgent"
    assert order[2] == "relaxed"
    assert order[3] == "nodeadline"
