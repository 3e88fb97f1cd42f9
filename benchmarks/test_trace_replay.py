"""Production-trace policy bake-off: ``BENCH_trace.json``.

A 2000-job synthetic production-shaped trace (Zipf users, per-group
duration scales, heavy-tailed lognormal durations, diurnal arrivals,
T4/P100/V100 demand mix) replayed open-loop over an 8-node
heterogeneous cluster (16 GPUs), once per scheduling policy:

``fcfs``, ``wfq``, ``locality`` (the pre-existing runtime policies) vs
the two history-driven ones: ``sjf_est`` (shortest predicted remaining
time from per-user/group EWMA history) and ``fairshare`` (decayed
hierarchical group→user fair share).

The shape claims the bake-off gates:

- **estimator-SJF beats FCFS on mean JCT** — user history predicts
  runtime well enough to buy real turnaround at production shape;
- **fair share beats estimator-SJF on Jain's index** over per-user
  median slowdown — SJF buys its throughput by skewing service
  quality across users, fair share equalizes it;
- every policy drains the full trace with zero errors.

The smoke slice (200 jobs, 4 nodes) additionally asserts bit-identical
metrics across two replays of the same seed — the determinism contract
CI gates on every run.
"""

import json

from repro.experiments.report import format_table
from repro.sim import SimProfiler
from repro.workloads.trace_replay import replay_trace, synthetic_trace

#: The bake-off workload: moderate sustained contention (offered load
#: ~70% of the 16 GPUs) with diurnal peaks pushing the cluster into
#: transient overload — the regime where policy choice matters most.
JOBS = 2000
SEED = 2020
ARRIVAL_RATE = 8.0
NODES = 8
GPUS_PER_NODE = 2

POLICIES = ("fcfs", "wfq", "locality", "sjf_est", "fairshare")

SMOKE_JOBS = 200
SMOKE_NODES = 4


def run_bakeoff(jobs=JOBS, nodes=NODES, policies=POLICIES):
    trace = synthetic_trace(jobs, seed=SEED, arrival_rate_per_s=ARRIVAL_RATE)
    results = {}
    for policy in policies:
        res = replay_trace(
            trace, nodes=nodes, gpus_per_node=GPUS_PER_NODE, policy=policy
        )
        results[policy] = res.metrics()
    return results


def _print_table(results):
    headers = ["policy", "jobs", "err", "makespan_s", "mean_jct_s",
               "p50_jct_s", "p99_jct_s", "queue_delay_s", "jain"]
    rows = [
        [
            policy,
            str(int(m["completed"])),
            str(int(m["errors"])),
            f"{m['makespan_s']:.1f}",
            f"{m['mean_jct_s']:.3f}",
            f"{m['p50_jct_s']:.3f}",
            f"{m['p99_jct_s']:.3f}",
            f"{m['mean_queue_delay_s']:.3f}",
            f"{m['jain_fairness']:.4f}",
        ]
        for policy, m in results.items()
    ]
    print()
    print(f"== trace bake-off: {JOBS} jobs, {NODES}x{GPUS_PER_NODE} GPUs ==")
    print(format_table(headers, rows))


def test_trace_policy_bakeoff(once):
    results = once(run_bakeoff)
    _print_table(results)

    for policy, m in results.items():
        assert m["errors"] == 0, f"{policy}: {m['errors']} job errors"
        assert m["completed"] == JOBS, f"{policy}: lost jobs"
        assert 0 < m["jain_fairness"] <= 1.0

    # History-driven SJF turns per-user runtime predictability into
    # turnaround: it must beat FCFS on mean JCT.
    assert results["sjf_est"]["mean_jct_s"] < results["fcfs"]["mean_jct_s"], (
        "estimator-SJF did not beat FCFS on mean JCT"
    )
    # ... and pays for it in service-quality skew: fair share must beat
    # it on Jain's fairness over per-user median slowdown.
    assert (
        results["fairshare"]["jain_fairness"]
        > results["sjf_est"]["jain_fairness"]
    ), "fair share did not beat estimator-SJF on Jain's index"

    with open("BENCH_trace.json", "w") as fh:
        json.dump(
            {
                "workload": {
                    "jobs": JOBS,
                    "seed": SEED,
                    "arrival_rate_per_s": ARRIVAL_RATE,
                    "nodes": NODES,
                    "gpus_per_node": GPUS_PER_NODE,
                },
                "policies": results,
                "claims": {
                    "sjf_est_beats_fcfs_mean_jct": True,
                    "fairshare_beats_sjf_est_jain": True,
                },
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")


#: Cluster-scale slice: the same synthetic shape spread over a 32-node
#: (64-GPU) cluster — large enough that simulator throughput, not just
#: policy quality, becomes the story.  Records wall time and events/sec
#: (via SimProfiler) alongside the sim-time metrics.
SCALE_NODES = 32
SCALE_JOBS = 1000
SCALE_ARRIVAL = 16.0


def run_scale():
    import time

    trace = synthetic_trace(
        SCALE_JOBS, seed=SEED, arrival_rate_per_s=SCALE_ARRIVAL
    )
    profiler = SimProfiler()
    t0 = time.perf_counter()
    res = replay_trace(
        trace,
        nodes=SCALE_NODES,
        gpus_per_node=GPUS_PER_NODE,
        policy="fcfs",
        profiler=profiler,
    )
    wall = time.perf_counter() - t0
    return res, profiler.report(), wall


def test_trace_scale_32_nodes(once):
    res, report, wall = once(run_scale)
    m = res.metrics()
    assert m["errors"] == 0
    assert m["completed"] == SCALE_JOBS
    assert report["events"] > 0

    print(
        f"\n== 32-node scale slice: {SCALE_JOBS} jobs, "
        f"{SCALE_NODES}x{GPUS_PER_NODE} GPUs ==\n"
        f"makespan {m['makespan_s']:.1f} sim-s in {wall:.2f} wall-s | "
        f"{report['events']} events @ "
        f"{report['events_per_second']:.0f} events/s | "
        f"{report['sim_seconds_per_wall_second']:.0f} sim-s/wall-s"
    )

    # Merge into the bake-off's BENCH file (this test runs after it in
    # file order; standalone runs create the file fresh).
    try:
        with open("BENCH_trace.json") as fh:
            bench = json.load(fh)
    except (OSError, ValueError):
        bench = {}
    bench["scale_32_nodes"] = {
        "nodes": SCALE_NODES,
        "gpus_per_node": GPUS_PER_NODE,
        "jobs": SCALE_JOBS,
        "arrival_rate_per_s": SCALE_ARRIVAL,
        "policy": "fcfs",
        "wall_seconds": wall,
        "events": report["events"],
        "events_per_second": report["events_per_second"],
        "sim_seconds_per_wall_second": report["sim_seconds_per_wall_second"],
        "metrics": m,
    }
    with open("BENCH_trace.json", "w") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_smoke():
    trace = synthetic_trace(
        SMOKE_JOBS, seed=SEED, arrival_rate_per_s=ARRIVAL_RATE
    )
    first = replay_trace(trace, nodes=SMOKE_NODES, policy="sjf_est")
    second = replay_trace(trace, nodes=SMOKE_NODES, policy="sjf_est")
    return first, second


def test_trace_smoke_deterministic(once):
    first, second = once(run_smoke)
    # Same trace, same seed, fresh simulation: bit-identical sim-time
    # metrics and per-job records.
    assert first.metrics() == second.metrics()
    assert first.records == second.records
    assert first.errors == 0
    assert len(first.records) == SMOKE_JOBS
