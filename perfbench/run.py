"""One benchmark run of one workload, from the root of a checkout:

    python3 perfbench/run.py --workload fig7_swap --seed 2020 --seconds 25 --trace 0

It repeats passes over the workload for about ``--seconds`` seconds and
checks every pass's simulated outputs: all passes must agree, no job may
fail, and at the default seed they must equal ``expected.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat
every metric by name with its unit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run under :class:`perfbench.layers.LayerProbe`
and reports the per-layer metrics of the traced ones.

Exit status is 0 only when the outputs are correct.
"""

import time

#: Set-up time is measured from the process's first statement.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: Set-ups measured per run: this process's own, plus fresh interpreters.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120


def _use_checkout() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/repro under {ROOT}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _setup_sample(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter running ``--setup-only``."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-only"],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def _sum_of_fastest(passes) -> float:
    """Per batch, the fastest host time over passes; summed over batches.

    Every pass does the same simulated work, so time above the fastest
    pass is the shared host's interference, not the simulator's cost.
    Over ten runs the fastest pass spread less than the median pass
    (README, "Bounds, run length and statistic").
    """
    return sum(min(col) for col in zip(*[[r.wall_s for r in p] for p in passes]))


def _merged_stats(runs) -> dict:
    merged: dict = {}
    for run in runs:
        for key, value in run.stats.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def _measure(batches, seconds: float, trace: bool):
    """Run passes for about ``seconds``; returns (set-up seconds,
    untraced, traced) where traced holds (pass, per-layer metrics) pairs.

    A new pass (or, traced, an untraced+traced pair) starts only while
    the mean pass so far still fits in the time left; there is always
    at least one.  Each pass prepares fresh inputs and drops the last
    pass's, which hold the whole simulated cluster.
    """
    from perfbench.layers import LayerProbe
    from repro.sim import SimProfiler

    prepared = [b.prepare() for b in batches]
    setup = time.perf_counter() - _T0
    untraced, traced = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        gc.collect()
        untraced.append([b.run(p) for b, p in zip(batches, prepared)])
        if trace:
            prepared = [b.prepare() for b in batches]
            gc.collect()
            profiler = SimProfiler()
            with LayerProbe() as probe:
                runs = [b.run(p, profiler=profiler) for b, p in zip(batches, prepared)]
            layer_metrics = probe.metrics(
                sum(r.wall_s for r in runs), _merged_stats(runs), profiler.events_processed
            )
            traced.append((runs, layer_metrics))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return setup, untraced, traced
        prepared = [b.prepare() for b in batches]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the seed the pins were made with")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and exit")
    args = parser.parse_args(argv)
    _use_checkout()

    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, pin_status, summarize

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    workload = WORKLOADS[args.workload]
    batches = workload.build(args.seed)
    if args.setup_only:
        for b in batches:
            b.prepare()
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0

    own_setup, untraced, traced = _measure(batches, args.seconds, bool(args.trace))
    setups = [own_setup] + [
        _setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]

    # -- correctness ---------------------------------------------------
    passes = untraced + [runs for runs, _ in traced]
    outputs = [summarize(p) for p in passes]
    statuses = [pin_status(args.workload, args.seed, o) for o in outputs]
    attempted = failed = 0
    for runs, out, status in zip(passes, outputs, statuses):
        attempted += out["jobs"]
        if status == "mismatch" or out != outputs[0]:
            failed += out["jobs"]
        else:
            failed += sum(r.errors for r in runs)
    pin = "mismatch" if "mismatch" in statuses else statuses[0]
    correct = failed == 0

    # -- metrics, named and with units as BENCHMARK.json lists them -----
    wall = _sum_of_fastest(untraced)
    if args.trace:
        per_pass = [m for _, m in traced]
        values = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        values["trace.overhead"] = _sum_of_fastest([runs for runs, _ in traced]) / wall
    else:
        values = {
            "wall_s": wall,
            "sim_s_per_wall_s": sum(r.sim_s for r in untraced[0]) / wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    first = outputs[0]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced"
          f" + {len(traced)} traced  pin {pin}")
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(f"sim_makespan_s {first['sim_makespan_s']!r} sim_s")
    print(f"sim_mean_jct_s {first['sim_mean_jct_s']!r} sim_s")
    print(f"sim_p99_jct_s {first['sim_p99_jct_s']!r} sim_s")
    print(f"job_error_rate {failed / attempted!r} fraction")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
