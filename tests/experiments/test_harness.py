"""Tests for the experiment harness and figure drivers."""

import pytest

from repro.cluster import Job, TorqueMode
from repro.core import RuntimeConfig
from repro.experiments import figures, run_cluster_batch, run_node_batch
from repro.experiments.figures import FigureResult
from repro.experiments.report import format_figure, format_table
from repro.simcuda import TESLA_C2050
from repro.workloads import make_job, workload


def small_jobs(n, use_runtime=True):
    return [make_job(workload("HS"), name=f"hs{i}", use_runtime=use_runtime)
            for i in range(n)]


def test_run_node_batch_collects_metrics():
    result = run_node_batch(
        small_jobs(3),
        [TESLA_C2050],
        RuntimeConfig(vgpus_per_device=4),
        label="probe",
    )
    assert result.label == "probe"
    assert result.errors == 0
    assert len(result.job_times) == 3
    assert result.total_time == pytest.approx(max(result.job_times))
    assert result.avg_time <= result.total_time
    assert result.stats["kernels_launched"] == 3


def test_run_node_batch_tag_breakdown_and_utilization():
    jobs = small_jobs(2) + [make_job(workload("BFS"), name="bfs0")]
    result = run_node_batch(jobs, [TESLA_C2050], RuntimeConfig(vgpus_per_device=4))
    assert set(result.tag_times) == {"HS", "BFS"}
    assert len(result.tag_times["HS"]) == 2
    avg = result.avg_by_tag()
    assert avg["HS"] > 0 and avg["BFS"] > 0
    assert 0.0 < result.mean_gpu_utilization <= 1.0
    assert len(result.gpu_utilization) == 1


def test_run_node_batch_bare_mode_has_no_runtime_stats():
    result = run_node_batch(small_jobs(2, use_runtime=False),
                            [TESLA_C2050], config=None)
    assert result.errors == 0
    assert result.stats == {}
    assert result.swaps == 0 and result.migrations == 0


def test_run_cluster_batch_merges_node_stats():
    result = run_cluster_batch(
        small_jobs(4),
        [[TESLA_C2050], [TESLA_C2050]],
        RuntimeConfig(vgpus_per_device=2),
    )
    assert result.errors == 0
    assert result.stats["kernels_launched"] == 4
    assert result.stats["connections_accepted"] == 4


def _raising_job():
    def body(node):
        yield node.env.timeout(0.5)
        raise RuntimeError("boom")

    return Job("boom", body)


@pytest.mark.parametrize("mode", list(TorqueMode))
def test_run_cluster_batch_counts_a_raising_job_as_an_error(mode):
    """One job that raises fails alone: the batch finishes and reports it."""
    native = mode is TorqueMode.NATIVE
    config = None if native else RuntimeConfig(vgpus_per_device=2)
    jobs = [_raising_job()] + small_jobs(1, use_runtime=not native)
    result = run_cluster_batch(
        jobs, [[TESLA_C2050], [TESLA_C2050]], config, mode=mode
    )
    assert result.errors == 1
    assert len(result.job_times) == 2
    assert str(jobs[0].outcome.error) == "boom"
    assert jobs[0].outcome.finished_at is not None
    assert jobs[1].outcome.ok


def test_run_arrival_process_serves_and_drains():
    from repro.experiments import run_arrival_process
    from repro.sim import RngStreams

    rng = RngStreams(3).stream("arrivals")
    result = run_arrival_process(
        [workload("HS")],
        [TESLA_C2050],
        RuntimeConfig(vgpus_per_device=4),
        rng,
        arrival_rate_per_s=0.3,
        horizon_s=30.0,
    )
    assert result.errors == 0
    assert len(result.job_times) >= 3
    assert all(t > 0 for t in result.job_times)
    # The run includes the drain: makespan ≥ horizon-ish.
    assert result.total_time >= 25.0
    assert "HS" in result.tag_times


def test_run_arrival_process_deterministic():
    from repro.experiments import run_arrival_process
    from repro.sim import RngStreams

    def go():
        rng = RngStreams(5).stream("arrivals")
        return run_arrival_process(
            [workload("HS")],
            [TESLA_C2050],
            RuntimeConfig(vgpus_per_device=2),
            rng,
            arrival_rate_per_s=0.4,
            horizon_s=20.0,
        )

    a, b = go(), go()
    assert a.job_times == b.job_times


def test_figures_deterministic_for_seed():
    a = figures.fig7_swapping(seed=1, cpu_fractions=(0.0,), njobs=6)
    b = figures.fig7_swapping(seed=1, cpu_fractions=(0.0,), njobs=6)
    assert a.series == b.series
    assert a.annotations == b.annotations


def test_figure_result_series_value():
    r = FigureResult(
        figure="F", x_label="x", x_values=[1, 2],
        series={"s": [10.0, 20.0]},
    )
    assert r.series_value("s", 2) == 20.0
    with pytest.raises(ValueError):
        r.series_value("s", 3)


def test_format_figure_renders_all_parts():
    r = FigureResult(
        figure="Figure X",
        x_label="jobs",
        x_values=[1],
        series={"a": [1.234], "b": [None]},
        annotations={"swaps": [7]},
        avg_series={"a": [0.5]},
    )
    text = format_figure(r)
    assert "Figure X" in text
    assert "1.2" in text
    assert "-" in text  # None rendered as dash
    assert "swaps" in text and "7" in text
    assert "Avg: a" in text


def test_format_table_alignment():
    out = format_table(["col", "x"], [["a", "1"], ["long-value", "2"]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_reproduce_cli_runs_subset(capsys):
    from repro.experiments.reproduce import main

    rc = main(["fig7", "--quick", "--seed", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "serialized execution (1 vGPU)" in out


def test_reproduce_cli_rejects_unknown():
    from repro.experiments.reproduce import main

    with pytest.raises(SystemExit):
        main(["nope"])
