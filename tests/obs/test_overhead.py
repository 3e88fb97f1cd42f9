"""Tracing must never perturb simulated time.

The instrumentation emits events from the host side of the simulation;
it costs wall-clock only.  These tests pin that down: the same batch run
with tracing off and with tracing on reports *identical* simulated
times, and a default (tracing-off) runtime records zero events.

The CLI's default mix also carries the simulator's deterministic speed
gates: a budget of Python function calls per pass, and a bound on what
tracing adds to it.  On one Python version a call count repeats
exactly from run to run, where a wall-clock reading of a 0.2 s pass
does not; wall-clock speed is judged by perfbench on longer, repeated
passes.
"""

import gc
import sys

from repro.cli import _parse_jobs
from repro.core.config import RuntimeConfig
from repro.experiments.harness import run_node_batch
from repro.obs import ObsCollector
from repro.sim import SimProfiler
from repro.simcuda.device import TESLA_C2050
from repro.simcuda.timing import CONTROL_PLANE_SECONDS
from repro.workloads import make_job
from repro.workloads.catalog import SHORT_RUNNING
from repro.workloads.finegrained import AGENT_PIPELINE, GRAPH_TRAVERSAL_FINE

from tests.core.conftest import Harness


def short_jobs(n=8):
    """A fig5-sized batch: n short-running jobs on one C2050."""
    return [
        make_job(spec, name=f"{spec.tag}#{i}", use_runtime=True)
        for i, spec in enumerate(SHORT_RUNNING[:n])
    ]


def test_fig5_sized_run_times_unchanged_by_tracing():
    off = run_node_batch(
        short_jobs(), [TESLA_C2050],
        RuntimeConfig(vgpus_per_device=4), label="off",
    )
    collector = ObsCollector()
    on = run_node_batch(
        short_jobs(), [TESLA_C2050],
        RuntimeConfig(vgpus_per_device=4, tracing=True), label="on",
        collector=collector,
    )
    assert on.total_time == off.total_time
    assert sorted(on.job_times) == sorted(off.job_times)
    assert on.stats == off.stats
    assert collector.events  # the traced run did record something


#: The default mix's simulated results, bit for bit: total time and the
#: per-job times in completion order.
PINNED_TOTAL_TIME = 225.30173497999996
PINNED_JOB_TIMES = [
    144.52653419600037,
    144.66717419600036,
    144.80781419600035,
    144.94845419600034,
    183.30141998000016,
    185.30143498000015,
    223.30171997999997,
    225.30173497999996,
]

#: Python function calls (``sys.setprofile`` "call" events, generator
#: resumptions included) in one untraced pass of the default mix, with
#: the garbage collector off and no SimProfiler attached.  Recorded on
#: CPython 3.11.7 in this test's order (a first pass in a fresh
#: interpreter makes 4 more); 2,240 intercepted calls, so about 94 per
#: call.
PINNED_CALLS = 210_096
#: A pass may make at most ``PINNED_CALLS / MIN_SPEEDUP`` calls: 2%
#: over the pin, where CPython 3.10-3.13 differ by under 1%.
MIN_SPEEDUP = 0.98
#: Traced calls / untraced calls per pass (recorded at 1.317: 210,096
#: untraced, 276,657 traced).
MAX_TRACING_OVERHEAD = 1.4


def _default_mix(tracing):
    """The acceptance run (`repro-sim run --vgpus 4 --jobs 8`): jobs,
    config and collector for one pass."""
    return (
        _parse_jobs(["8"], 0.0),
        RuntimeConfig(vgpus_per_device=4, tracing=tracing),
        ObsCollector() if tracing else None,
    )


def _count_calls(tracing):
    """Python function calls made by one pass of the default mix."""
    jobs, config, collector = _default_mix(tracing)
    return _calls_in(
        lambda: run_node_batch(jobs, [TESLA_C2050], config, collector=collector)
    )


def _calls_in(run):
    """Python function calls made by ``run()``.

    The garbage collector runs first and stays off during the run:
    finalizers it would run add calls to some passes and not others.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


def test_cli_default_mix_times_unchanged_by_tracing():
    """The default mix with and without tracing: pinned simulated
    results, identical between the two, and within the call budget."""
    def run(tracing):
        jobs, config, collector = _default_mix(tracing)
        profiler = SimProfiler()
        result = run_node_batch(jobs, [TESLA_C2050], config,
                                collector=collector, profiler=profiler)
        return result, profiler, collector

    off, off_profiler, _ = run(False)
    on, on_profiler, collector = run(True)
    assert off.total_time == PINNED_TOTAL_TIME
    assert list(off.job_times) == PINNED_JOB_TIMES
    assert on.total_time == off.total_time
    assert on.job_times == off.job_times
    assert on.stats == off.stats
    assert on_profiler.events_processed == off_profiler.events_processed
    assert collector.events

    calls_off = _count_calls(False)
    calls_on = _count_calls(True)
    assert calls_off <= PINNED_CALLS / MIN_SPEEDUP, (
        f"Python calls per untraced pass: pinned {PINNED_CALLS} -> "
        f"measured {calls_off} ({calls_off / PINNED_CALLS:.3f}x, "
        f"budget {1 / MIN_SPEEDUP:.3f}x)"
    )
    overhead = calls_on / calls_off
    assert overhead <= MAX_TRACING_OVERHEAD, (
        f"tracing costs {overhead:.3f}x in Python calls per pass "
        f"({calls_off} -> {calls_on}, bound {MAX_TRACING_OVERHEAD}x)"
    )


#: Python calls (counted as for ``PINNED_CALLS``) in one pass of a
#: shrunken ``finegrained_rpc`` (perfbench): two GT-F and two AP-F jobs
#: on one C2050 with 4 vGPUs and the control-plane charge.  Its 12,850
#: calls served are tiny kernels and copies, so the pass is almost all
#: per-call path (frontend, net, dispatcher, launch), which the default
#: mix's long kernels dilute: about 80 Python calls per call served.
#: Same budget rule: at most ``PINNED_FINEGRAINED_CALLS / MIN_SPEEDUP``.
PINNED_FINEGRAINED_CALLS = 1_033_545
#: The mix's simulated makespan, bit for bit.
PINNED_FINEGRAINED_TOTAL_TIME = 0.35368338399965094


def test_finegrained_mix_within_call_budget():
    jobs = [
        make_job(spec, name=f"{spec.tag}#{i}")
        for i, spec in enumerate([GRAPH_TRAVERSAL_FINE, AGENT_PIPELINE] * 2)
    ]
    config = RuntimeConfig(
        vgpus_per_device=4, launch_control_plane_s=CONTROL_PLANE_SECONDS
    )
    results = []
    calls = _calls_in(
        lambda: results.append(run_node_batch(jobs, [TESLA_C2050], config))
    )
    (result,) = results
    assert result.errors == 0
    assert result.stats["calls_served"] == 12_850
    assert result.total_time == PINNED_FINEGRAINED_TOTAL_TIME
    assert calls <= PINNED_FINEGRAINED_CALLS / MIN_SPEEDUP, (
        f"Python calls per fine-grained pass: pinned {PINNED_FINEGRAINED_CALLS} -> "
        f"measured {calls} ({calls / PINNED_FINEGRAINED_CALLS:.3f}x, "
        f"budget {1 / MIN_SPEEDUP:.3f}x)"
    )


def test_disabled_runtime_records_no_events():
    h = Harness()
    assert h.runtime.obs.enabled is False
    h.spawn(h.simple_app("app", kernel_seconds=0.5))
    h.run()
    assert h.runtime.obs.events == []
    # metrics stay live even without tracing (pull-based, host-side only)
    snap = h.runtime.metrics.snapshot()
    assert snap["runtime_calls_served"] > 0
    assert snap["call_latency_seconds"]["count"] > 0
