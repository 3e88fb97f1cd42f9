"""The open-loop trace replay harness on a small cluster."""

import pytest

from repro.core.estimator import RuntimeEstimator
from repro.workloads.trace_replay import (
    TraceJob,
    _node_type_plan,
    replay_trace,
    synthetic_trace,
)

MIB = 1024**2


@pytest.fixture(scope="module")
def small_result():
    trace = synthetic_trace(40, seed=11)
    return trace, replay_trace(trace, nodes=4, gpus_per_node=2, policy="fcfs")


class TestReplay:
    def test_all_jobs_complete(self, small_result):
        trace, res = small_result
        assert len(res.records) == len(trace)
        assert res.errors == 0
        assert all(r["ok"] for r in res.records)

    def test_metrics_rollup(self, small_result):
        _, res = small_result
        m = res.metrics()
        assert m["makespan_s"] > 0
        assert 0 < m["p50_jct_s"] <= m["p99_jct_s"]
        assert m["mean_queue_delay_s"] >= 0
        assert 0 < m["jain_fairness"] <= 1.0
        # Every job at least runs for its own GPU demand.
        for r in res.completed:
            assert r["jct"] >= 0.5 * r["duration"]

    def test_users_become_tenants_with_groups(self, small_result):
        trace, res = small_result
        users = {j.user: j.group for j in trace}
        for report in res.node_reports.values():
            tenants = report["tenants"]
            for user, group in users.items():
                assert user in tenants
                assert tenants[user]["group"] == group

    def test_cloud_dashboard_present(self, small_result):
        _, res = small_result
        assert len(res.node_reports) == res.nodes == 4
        for report in res.node_reports.values():
            assert "metrics" in report

    def test_jobs_placed_on_matching_gpu_type(self, small_result):
        trace, res = small_result
        # 4 nodes host all three types; each job with a hosted type must
        # land on a node of that type (node names are stable per plan).
        plan = _node_type_plan(trace, 4)
        node_type = {f"node{i}": t for i, t in enumerate(plan)}
        for r in res.records:
            assert node_type[r["node"]] == r["gpu_type"].upper()


class TestDeterminism:
    def test_identical_seed_identical_metrics(self):
        trace = synthetic_trace(30, seed=5)
        a = replay_trace(trace, nodes=2, policy="sjf_est")
        b = replay_trace(trace, nodes=2, policy="sjf_est")
        assert a.metrics() == b.metrics()
        assert a.records == b.records

    def test_policy_changes_schedule(self):
        trace = synthetic_trace(60, seed=5, arrival_rate_per_s=30.0)
        a = replay_trace(trace, nodes=2, policy="fcfs")
        b = replay_trace(trace, nodes=2, policy="sjf_est")
        assert a.metrics() != b.metrics()


class TestEstimatorWiring:
    def test_shared_estimator_learns(self):
        trace = synthetic_trace(30, seed=2)
        est = RuntimeEstimator()
        replay_trace(trace, nodes=2, policy="sjf_est", estimator=est)
        assert est.observations >= len(trace)
        heavy = max({j.user for j in trace}, key=lambda u: sum(
            1 for j in trace if j.user == u))
        assert est.predict(heavy) is not None

    def test_every_node_reads_and_feeds_the_shared_estimator(self):
        class CountingEstimator(RuntimeEstimator):
            predictions = 0

            def predict_for(self, ctx):
                self.predictions += 1
                return super().predict_for(ctx)

        class RuntimeList:
            """Collector stand-in: remembers every node's runtime."""

            def __init__(self):
                self.runtimes = []

            def attach(self, runtime):
                self.runtimes.append(runtime)

        trace = synthetic_trace(30, seed=2)
        est, nodes = CountingEstimator(), RuntimeList()
        res = replay_trace(trace, nodes=2, policy="sjf_est", estimator=est,
                           collector=nodes)
        assert len(nodes.runtimes) == 2
        for runtime in nodes.runtimes:
            assert runtime.scheduler.policy_context.estimator is est
        assert est.predictions > 0  # sjf_est read it
        # One observation per completed job from the harness, plus one
        # per rank exit from each node's dispatcher.
        ranks = sum(r["num_gpus"] for r in res.completed)
        assert res.errors == 0
        assert est.observations == len(res.completed) + ranks


class TestNodeTypePlan:
    def plan_of(self, jobs, nodes):
        return _node_type_plan(jobs, nodes)

    def job(self, gpu_type, duration=1.0):
        return TraceJob(
            job_id=f"j{gpu_type}{duration}", user="u", group="g",
            submit_time=0.0, duration=duration, gpu_type=gpu_type,
            mem_bytes=MIB,
        )

    def test_proportional(self):
        jobs = [self.job("T4", 3.0), self.job("V100", 1.0)]
        plan = self.plan_of(jobs, 4)
        assert plan.count("T4") == 3
        assert plan.count("V100") == 1

    def test_every_type_hosted(self):
        jobs = [self.job("T4", 100.0), self.job("V100", 0.01)]
        assert "V100" in self.plan_of(jobs, 4)

    def test_tiny_cluster_keeps_top_types(self):
        jobs = [
            self.job("T4", 10.0),
            self.job("V100", 5.0),
            self.job("P100", 0.1),
        ]
        plan = self.plan_of(jobs, 2)
        assert len(plan) == 2
        assert "P100" not in plan

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            replay_trace([], nodes=2)
