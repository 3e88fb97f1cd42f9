"""Flash-crowd stress: a trace burst against a small over-committed
cluster with every contention mechanism armed at once.

The regression this guards: admission queueing + preemptive
time-slicing + chunked/partial eviction interact through the same wait
queues, and a burst of hundreds of jobs arriving in seconds must drain
— every job reaches a terminal outcome (completed or a recorded error,
never a hang), the simulation terminates, and per-tenant quota
accounting stays consistent."""

import pytest

from repro.core.config import RuntimeConfig
from repro.workloads.trace_replay import (
    TraceJob,
    replay_trace,
    synthetic_trace,
)

MIB = 1024**2
GIB = 1024**3


def flash_crowd(num_jobs=120, seed=13):
    """A burst: everything arrives within ~2 simulated seconds."""
    jobs = synthetic_trace(
        num_jobs,
        seed=seed,
        arrival_rate_per_s=60.0,
        mean_duration_s=0.5,
        users=10,
        groups=3,
    )
    return [
        TraceJob(
            job_id=j.job_id,
            user=j.user,
            group=j.group,
            submit_time=min(j.submit_time, 2.0),
            duration=j.duration,
            num_gpus=j.num_gpus,
            gpu_type=j.gpu_type,
            mem_bytes=j.mem_bytes,
        )
        for j in jobs
    ]


STRESS_CONFIG = RuntimeConfig(
    qos_enabled=True,
    admission_mode="queue",
    vgpu_quantum_s=0.2,
    swap_chunk_bytes=32 * MIB,
    eviction_mode="partial",
    host_swap_capacity_bytes=128 * GIB,
)


@pytest.fixture(scope="module")
def stress_result():
    trace = flash_crowd()
    return trace, replay_trace(
        trace, nodes=2, gpus_per_node=2, policy="fairshare",
        config=STRESS_CONFIG,
    )


class TestFlashCrowd:
    def test_simulation_drains(self, stress_result):
        trace, res = stress_result
        # env.run() returned and every job produced a record: no
        # deadlock, no lost wake-up, no stuck admission queue.
        assert len(res.records) == len(trace)

    def test_all_outcomes_terminal(self, stress_result):
        _, res = stress_result
        for r in res.records:
            assert r["finished"] >= r["submitted"]
        # Errors (quota/admission) are allowed, silent loss is not.
        assert len(res.completed) + res.errors >= len(res.records)

    def test_burst_actually_queued(self, stress_result):
        _, res = stress_result
        # A 120-job burst on 4 GPUs must serialize: someone waited.
        assert res.mean_queue_delay > 0
        assert res.makespan > 2.0

    def test_preemption_and_swap_exercised(self, stress_result):
        _, res = stress_result
        assert res.stats.get("preemptions", 0) > 0

    def test_quota_accounting_consistent(self, stress_result):
        trace, res = stress_result
        for report in res.node_reports.values():
            for name, t in report["tenants"].items():
                assert t["gpu_seconds"] >= 0
                # Burst drained: nothing still attached or resident.
                assert t["contexts"] == 0
                assert t["device_bytes"] == 0
        # GPU time was attributed to the users who submitted.
        total = sum(
            t["gpu_seconds"]
            for report in res.node_reports.values()
            for t in report["tenants"].values()
        )
        assert total > 0

    def test_deterministic_under_stress(self):
        trace = flash_crowd(num_jobs=60)
        a = replay_trace(trace, nodes=2, policy="fairshare",
                         config=STRESS_CONFIG)
        b = replay_trace(trace, nodes=2, policy="fairshare",
                         config=STRESS_CONFIG)
        assert a.metrics() == b.metrics()


class TestStressAcrossPolicies:
    @pytest.mark.parametrize("policy", ["fcfs", "sjf_est", "wfq"])
    def test_burst_drains_under_policy(self, policy):
        trace = flash_crowd(num_jobs=40)
        res = replay_trace(trace, nodes=2, policy=policy,
                           config=STRESS_CONFIG)
        assert len(res.records) == len(trace)
        assert len(res.completed) >= len(trace) * 0.9
