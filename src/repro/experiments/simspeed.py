"""Simulator-throughput measurement: one runner for bench, CLI and CI.

Measures how fast the simulator itself runs — events per wall second and
simulated seconds per wall second — on the canonical overcommitted job
mix, with structured tracing off and on.  ``benchmarks/test_simspeed.py``
asserts the regression gates over a :func:`measure` result, ``repro bench
simspeed`` prints the scorecard interactively, and ``--pin-baseline``
regenerates ``benchmarks/simspeed_baseline.json`` so the CI ratchet can
move upward after a perf win lands on the machine class that records it.

The baseline JSON holds the pinned simulated results plus one
machine-pinned gate: ``events_per_second`` (the untraced figure on the
recording machine) with ``min_speedup`` sized to absorb CI-machine
variance.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional

from repro.core.config import RuntimeConfig
from repro.obs import ObsCollector
from repro.sim import SimProfiler
from repro.simcuda.device import TESLA_C2050

__all__ = [
    "JOB_COUNT",
    "VGPUS",
    "REPEATS",
    "BASELINE_PATH",
    "run_once",
    "measure",
    "pin_baseline",
]

#: Canonical overcommit mix: the CLI's default memory-heavy MM-L/BS-L
#: alternation, enough jobs to oversubscribe a C2050 and swap.
JOB_COUNT = 8
VGPUS = 4
#: Wall-clock figures take the best of this many runs (sim results are
#: deterministic; only the wall side is noisy).
REPEATS = 3

#: Pinned simulated results + recorded events/sec + the ratchet.
BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[3]
    / "benchmarks"
    / "simspeed_baseline.json"
)


def run_once(*, tracing: bool):
    """One run of the canonical mix; returns ``(BatchResult, report)``."""
    from repro.cli import _parse_jobs
    from repro.experiments.harness import run_node_batch

    profiler = SimProfiler()
    jobs = _parse_jobs([str(JOB_COUNT)], 0.0)
    config = RuntimeConfig(vgpus_per_device=VGPUS, tracing=tracing)
    collector = ObsCollector() if tracing else None
    result = run_node_batch(jobs, [TESLA_C2050], config, label="simspeed",
                            collector=collector, profiler=profiler)
    assert result.errors == 0
    return result, profiler.report()


def _fastest(runs):
    """The first run's result (sim side is identical across runs) with
    the fastest run's report."""
    report = max((rep for _, rep in runs),
                 key=lambda r: r["events_per_second"])
    return runs[0][0], report


def measure(repeats: int = REPEATS) -> dict:
    """The tracing off/on measurement the bench and CLI share.

    Returns ``{"off": (result, report), "on": (result, report)}`` keyed
    by tracing, each the fastest of ``repeats`` runs.  Untraced and
    traced runs alternate, so host-speed drift during the measurement
    hits both alike and the overhead ratio compares like with like.
    """
    runs = {"off": [], "on": []}
    for _ in range(max(1, repeats)):
        runs["off"].append(run_once(tracing=False))
        runs["on"].append(run_once(tracing=True))
    return {key: _fastest(pair) for key, pair in runs.items()}


def load_baseline(path: Optional[pathlib.Path] = None) -> dict:
    return json.loads((path or BASELINE_PATH).read_text())


def pin_baseline(measurement: dict,
                 path: Optional[pathlib.Path] = None) -> dict:
    """Write a fresh ``simspeed_baseline.json`` from ``measurement``.

    Preserves the gate size (``min_speedup``) from the existing baseline
    when present — pinning refreshes the recorded figures, it does not
    loosen or tighten the ratchet.
    """
    path = path or BASELINE_PATH
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        old = {}
    result, report = measurement["off"]
    baseline = {
        "comment": (
            "simspeed baseline pinned by `repro bench simspeed "
            "--pin-baseline`. sim_* values pin the canonical 8-job/"
            "4-vGPU overcommit mix's simulated results bit-for-bit. "
            "events_per_second is the untraced figure on the recording "
            "machine with min_speedup as the machine-variance-tolerant "
            "CI ratchet. See docs/simulator.md for the honest-throughput "
            "scorecard."
        ),
        "workload": {"jobs": JOB_COUNT, "vgpus": VGPUS,
                     "gpu": TESLA_C2050.name},
        "sim_total_time": result.total_time,
        "sim_job_times": list(result.job_times),
        "events_per_second": report["events_per_second"],
        "min_speedup": old.get("min_speedup", 0.7),
    }
    path.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


def scorecard(measurement: dict, baseline: Optional[dict] = None) -> str:
    """Human-readable table for the CLI and the bench's -s output."""
    from repro.experiments.report import format_table

    rows = []
    for tracing in ("off", "on"):
        _, rep = measurement[tracing]
        rows.append([
            tracing,
            str(rep["events"]),
            f"{rep['events_per_second']:.0f}",
            f"{rep['sim_seconds_per_wall_second']:.1f}",
            f"{rep['queue_depth_mean']:.1f}",
            str(rep["queue_depth_peak"]),
        ])
    out = format_table(
        ["tracing", "events", "events/s", "sim s / wall s",
         "queue mean", "queue peak"],
        rows,
    )
    if baseline is not None:
        rep = measurement["off"][1]
        speedup = rep["events_per_second"] / baseline["events_per_second"]
        out += (
            f"\nevents/s vs recorded baseline: "
            f"{baseline['events_per_second']:.0f} -> "
            f"{rep['events_per_second']:.0f} ({speedup:.3f}x, "
            f"ratchet {baseline['min_speedup']}x)"
        )
    return out
