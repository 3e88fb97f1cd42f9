"""Simulator self-profiling: how fast does the simulation itself run?

Every other benchmark reports *simulated* seconds; this one reports the
simulator's own speed — events processed per wall-clock second, simulated
seconds advanced per wall second, event-queue depth and the per-handler
hotspot breakdown — for the canonical overcommitted job mix, with
tracing off and on.  The measurement itself lives in
:mod:`repro.experiments.simspeed` (one runner shared with ``repro bench
simspeed`` and CI).

Gates asserted here:

* **Sim-time identity**: the untraced run reproduces the pinned
  simulated results (``simspeed_baseline.json``) bit-for-bit — total
  time and every per-job completion time.
* **Zero simulated cost of tracing**: traced and untraced runs advance
  simulated time identically, process identical event counts, and
  tracing costs at most ``MAX_TRACING_OVERHEAD`` in events/sec
  (recorded at 1.52x).
* **Throughput ratchet (machine-pinned)**: untraced events/sec must stay
  above ``min_speedup`` x the baseline's recorded figure; the failure
  message prints old -> new.

Writes ``BENCH_simspeed.json`` and ``BENCH_simspeed_hotspots.txt``
(the SimProfiler hotspot artifact CI uploads).
"""

import json

from repro.experiments import simspeed
from repro.experiments.report import format_table

MAX_TRACING_OVERHEAD = 1.6
REPEATS = 3


def test_identity_tracing_and_ratchet(once):
    m = once(simspeed.measure, REPEATS)
    res_off, rep_off = m["off"]
    res_on, rep_on = m["on"]

    # Sim-time identity against the pinned baseline: no rework may move
    # a single simulated timestamp.
    baseline = simspeed.load_baseline()
    assert res_off.total_time == baseline["sim_total_time"], (
        f"simulated total time diverged from the pinned baseline: "
        f"{res_off.total_time!r} != {baseline['sim_total_time']!r}"
    )
    assert list(res_off.job_times) == baseline["sim_job_times"], (
        "per-job completion times diverged from the pinned baseline"
    )

    # Tracing is observation only: identical simulated outcome.
    assert res_on.total_time == res_off.total_time
    assert res_on.job_times == res_off.job_times
    assert res_on.stats == res_off.stats
    assert rep_on["events"] == rep_off["events"]
    assert rep_on["sim_seconds"] == rep_off["sim_seconds"]

    _write_bench(m, baseline)

    # Machine-pinned throughput ratchet; the message prints old -> new
    # so a CI failure shows the regression magnitude at a glance.
    speedup = rep_off["events_per_second"] / baseline["events_per_second"]
    assert speedup >= baseline["min_speedup"], (
        f"events/sec regressed: baseline "
        f"{baseline['events_per_second']:.0f} -> measured "
        f"{rep_off['events_per_second']:.0f} ({speedup:.2f}x, ratchet "
        f"{baseline['min_speedup']}x)"
    )

    overhead = rep_off["events_per_second"] / rep_on["events_per_second"]
    assert overhead <= MAX_TRACING_OVERHEAD, (
        f"tracing costs {overhead:.2f}x in events/sec "
        f"(bound {MAX_TRACING_OVERHEAD}x)"
    )


def _write_bench(m, baseline):
    _, rep_off = m["off"]
    _, rep_on = m["on"]
    overhead = rep_off["events_per_second"] / rep_on["events_per_second"]

    print("\n== simulator speed: "
          f"{simspeed.JOB_COUNT}-job overcommit mix, {simspeed.VGPUS} "
          f"vGPUs (best of {REPEATS}) ==\n"
          + simspeed.scorecard(m, baseline)
          + f"\ntracing overhead: {overhead:.3f}x")

    with open("BENCH_simspeed.json", "w") as fh:
        json.dump(
            {
                "workload": {
                    "jobs": simspeed.JOB_COUNT,
                    "vgpus": simspeed.VGPUS,
                    "repeats": REPEATS,
                },
                "tracing_off": rep_off,
                "tracing_on": rep_on,
                "tracing_overhead_ratio": overhead,
                "baseline_events_per_second": baseline["events_per_second"],
                "speedup_vs_baseline": (
                    rep_off["events_per_second"]
                    / baseline["events_per_second"]
                ),
                "min_speedup": baseline["min_speedup"],
                "sim_time_matches_pinned_baseline": True,
            },
            fh,
            indent=2,
        )
        fh.write("\n")

    # The SimProfiler hotspot artifact CI uploads: where the remaining
    # wall time goes.
    with open("BENCH_simspeed_hotspots.txt", "w") as fh:
        fh.write("hotspots (untraced):\n")
        fh.write(format_table(
            ["handler", "events"],
            [[h["handler"], str(h["events"])] for h in rep_off["hotspots"]],
        ))
        fh.write("\n\n")
