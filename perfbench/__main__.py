"""Run a full set of benchmark runs and summarise them:

    python -m perfbench [--workload NAME ...] [--seed N] [--out set.json]

A set makes ``RUNS`` untraced runs per workload, round-robin across
the workloads so host drift hits all of them alike, then one traced
run per workload.  Every run is a fresh ``perfbench/run.py`` process,
one at a time, lasting ``run_seconds`` of ``BENCHMARK.json``.  Each
end-to-end metric is reported as median, IQR and n; each workload's
per-layer metrics come from its traced run.

A fixed pure-Python loop is timed at the start and at the end of the
set (``host_calib_s``); if the two differ by more than 10% the set is
marked unstable.

``--pin`` instead runs every workload once, in this process, at the
default seed and rewrites ``expected.json`` with its outputs.  Only a
change that names the model bug it fixes may re-pin.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

from perfbench.layers import LAYERS

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 300
CALIB_DRIFT = 0.10
#: Untraced runs per workload in a set.
RUNS = 5


def calibrate(repeats: int = 5) -> float:
    """Median host seconds of a fixed integer loop (no allocation)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` process; returns its JSON result plus its pin status."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    lines = done.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: run.py printed nothing\n{done.stderr}")
    result = json.loads(lines[-1])
    result["pin"] = lines[0].rsplit(" ", 1)[1]
    return result


def spread(values):
    """(median, IQR) as statistics.quantiles gives the quartiles."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def run_set(workloads, seed: int) -> dict:
    seconds = json.loads(SPEC.read_text())["run_seconds"]
    calib_start = calibrate()
    results = {w: [] for w in workloads}
    for r in range(RUNS):
        for w in workloads:
            results[w].append(run_once(w, seed, seconds, 0))
            print(f"  run {r + 1}/{RUNS} {w}: {results[w][-1]['metrics']['wall_s']['value']:.3f} s",
                  file=sys.stderr)
    traced = {w: run_once(w, seed, seconds, 1) for w in workloads}
    calib_end = calibrate()
    drift = abs(calib_end - calib_start) / calib_start
    return {
        "seed": seed,
        "runs": RUNS,
        "seconds": seconds,
        "host_calib_s": {"start": calib_start, "end": calib_end},
        "unstable": drift > CALIB_DRIFT,
        "untraced": results,
        "traced": traced,
    }


def report(data: dict) -> str:
    lines = []
    for w, results in data["untraced"].items():
        ok = all(r["correct"] for r in results) and data["traced"][w]["correct"]
        pins = sorted({r["pin"] for r in results})
        lines.append(f"== {w}  (correct: {ok}, pin: {'/'.join(pins)}, n={len(results)})")
        for key, m in results[0]["metrics"].items():
            median, iqr = spread([r["metrics"][key]["value"] for r in results])
            lines.append(f"  {key:<18} {median:12.4f} {m['unit']:<8} IQR {iqr:.4f}"
                         f" ({iqr / median:.1%})")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        lines.append(f"  {'job_error_rate':<18} {failed / attempted:12.4f} fraction")
        layer = data["traced"][w]["metrics"]
        top = sorted(LAYERS, key=lambda n: -layer[f"{n}.self_share"]["value"])[:3]
        lines.append("  top self_share: " + ", ".join(
            f"{n} {layer[f'{n}.self_share']['value']:.1%}" for n in top))
        lines.append(f"  trace.overhead {layer['trace.overhead']['value']:.3f}")
    calib = data["host_calib_s"]
    lines.append(f"host_calib_s start {calib['start']:.4f} end {calib['end']:.4f}"
                 f"{'  UNSTABLE' if data['unstable'] else ''}")
    return "\n".join(lines)


def pin(workloads) -> None:
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, load_pins, summarize, write_pins

    try:
        pins = load_pins()
    except FileNotFoundError:
        pins = {}
    for w in workloads:
        batches = WORKLOADS[w].build(DEFAULT_SEED)
        pins[w] = summarize([b.run(b.prepare()) for b in batches])
        print(f"{w}: {pins[w]}")
    write_pins(pins)


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", help="also write the set's raw results as JSON here")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected.json from one in-process pass")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)

    if args.pin:
        pin(workloads)
        return 0
    data = run_set(workloads, args.seed)
    print(report(data))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(data, indent=2) + "\n")
    correct = all(r["correct"] for rs in data["untraced"].values() for r in rs) and all(
        r["correct"] for r in data["traced"].values())
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
