"""Tests of the benchmark's own machinery.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

import shutil
import subprocess
import sys
import pathlib

import pytest

from perfbench.layers import LayerProbe, LayerTimer, timed
from perfbench.workloads import (
    DEFAULT_SEED,
    fig7_swap,
    fig8_paged,
    finegrained_rpc,
    pin_status,
    summarize,
    trace_cluster,
)
from repro.net.channel import Channel
from repro.sim import Environment, Interrupt, SimProfiler

ROOT = pathlib.Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_attributed_across_nested_resumptions():
    clock = FakeClock()
    timer = LayerTimer(clock)
    env = Environment()

    def leaf():
        clock.now += 100.0

    def inner():
        clock.now += 10.0
        yield env.timeout(1)
        clock.now += 20.0
        leaf()
        try:
            yield env.timeout(5)
        except Interrupt:
            clock.now += 40.0
        return "inner"

    def outer():
        clock.now += 1.0
        yield env.timeout(1)
        clock.now += 2.0
        result = yield from inner()
        clock.now += 4.0
        return result

    leaf = timed(timer, "gamma", leaf)
    inner = timed(timer, "beta", inner)
    outer = timed(timer, "alpha", outer)

    proc = env.process(outer())

    def interrupter():
        yield env.timeout(3)
        proc.interrupt("wake")

    env.process(interrupter())
    env.run()

    assert proc.value == "inner"
    assert timer.self_s == {"alpha": 7.0, "beta": 70.0, "gamma": 100.0}
    assert timer.calls == {"alpha": 1, "beta": 1, "gamma": 1}
    assert timer._stack == []


def test_calls_within_a_layer_count_once():
    timer = LayerTimer()

    def helper():
        return 1

    helper = timed(timer, "frontend", helper)
    api = timed(timer, "frontend", lambda: helper() + helper())
    assert api() == 2
    assert timer.calls == {"frontend": 1}


SHRUNKEN = {
    "fig7_swap": lambda: fig7_swap(DEFAULT_SEED, jobs=6, fractions=(0.0, 2.0)),
    "fig8_paged": lambda: fig8_paged(DEFAULT_SEED, mixes=((3, 3), (0, 6))),
    "finegrained_rpc": lambda: finegrained_rpc(DEFAULT_SEED, jobs=2),
    "trace_cluster": lambda: trace_cluster(DEFAULT_SEED, jobs=150, nodes=4),
}


@pytest.mark.parametrize("name", sorted(SHRUNKEN))
def test_traced_pass_leaves_simulated_outputs_identical(name):
    batches = SHRUNKEN[name]()
    untraced = [b.run(b.prepare()) for b in batches]
    original_send = Channel.send
    profiler = SimProfiler()
    with LayerProbe() as probe:
        traced = [b.run(b.prepare(), profiler=profiler) for b in batches]
    assert Channel.send is original_send

    assert summarize(traced) == summarize(untraced)
    assert all(run.errors == 0 for run in untraced)
    wall = sum(run.wall_s for run in traced)
    metrics = probe.metrics(wall, traced[0].stats, profiler.events_processed)
    for key, value in metrics.items():
        assert value >= 0, key
    assert metrics["memory.launch_attempts"] > 0
    assert metrics["net.messages"] > 0
    assert sum(v for k, v in metrics.items() if k.endswith(".self_share")) == pytest.approx(1.0)


def test_pin_check_catches_a_perturbed_output():
    batches = fig7_swap(DEFAULT_SEED, jobs=3, fractions=(1.0,))
    runs = [b.run(b.prepare()) for b in batches]
    outputs = summarize(runs)
    pins = {"fig7_swap": outputs}
    assert pin_status("fig7_swap", DEFAULT_SEED, outputs, pins) == "match"
    # fig7_swap takes no seed: any seed is checked against the same pin.
    assert pin_status("fig7_swap", 7, outputs, pins) == "match"

    name, finish = runs[0].finishes[0]
    runs[0].finishes[0] = (name, finish + 1e-9)
    perturbed = summarize(runs)
    assert perturbed["finish_sha256"] != outputs["finish_sha256"]
    assert pin_status("fig7_swap", DEFAULT_SEED, perturbed, pins) == "mismatch"


def test_seeded_workload_is_unpinned_off_the_default_seed():
    assert pin_status("trace_cluster", DEFAULT_SEED + 1, {"jobs": 0}, {}) == "unpinned"


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, a run must fail fast
    and print no result."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7_swap", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
