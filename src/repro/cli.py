"""Command-line interface.

Subcommands::

    python -m repro.cli devices                 # GPU hardware presets
    python -m repro.cli catalog                 # Table 2 benchmark list
    python -m repro.cli run --jobs MM-L:6 ...   # run a batch on one node
    python -m repro.cli reproduce [figN ...]    # regenerate paper figures
    python -m repro.cli obs report TRACE.jsonl  # analyze a JSON-lines trace

``run`` builds a single simulated node, executes the requested job mix
through the runtime (or the bare CUDA runtime with ``--bare``) and prints
the batch metrics plus the runtime statistics.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Dict, List

from repro.core.config import EVICTION_POLICY_NAMES, RuntimeConfig
from repro.core.policies import POLICY_NAMES
from repro.experiments.harness import run_node_batch
from repro.obs import ObsCollector
from repro.experiments.report import format_table
from repro.simcuda.device import (
    GPUSpec,
    INTEL_MIC,
    QUADRO_2000,
    TESLA_C1060,
    TESLA_C2050,
    TESLA_P100,
    TESLA_T4,
    TESLA_V100,
)
from repro.workloads import ALL_WORKLOADS, make_job, workload

__all__ = ["main"]

GPU_PRESETS: Dict[str, GPUSpec] = {
    "c2050": TESLA_C2050,
    "c1060": TESLA_C1060,
    "quadro2000": QUADRO_2000,
    "mic": INTEL_MIC,
    "t4": TESLA_T4,
    "p100": TESLA_P100,
    "v100": TESLA_V100,
}


def _parse_gpus(text: str) -> List[GPUSpec]:
    specs = []
    for token in text.split(","):
        token = token.strip().lower()
        if token not in GPU_PRESETS:
            raise argparse.ArgumentTypeError(
                f"unknown GPU {token!r}; choose from {sorted(GPU_PRESETS)}"
            )
        specs.append(GPU_PRESETS[token])
    return specs


def _number(convert, allow_zero: bool):
    """An argparse ``type=`` that parses with ``convert`` and accepts only
    finite values above zero (or at or above it, with ``allow_zero``), so
    a bad count or rate is a usage error rather than a traceback or a
    nonsense run."""
    bound = "non-negative" if allow_zero else "positive"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value) or value < 0 or (
            value == 0 and not allow_zero
        ):
            raise argparse.ArgumentTypeError(
                f"expected a {bound} {convert.__name__}, got {text!r}"
            )
        return value

    return parse


_positive_int = _number(int, allow_zero=False)
_non_negative_int = _number(int, allow_zero=True)
_positive_float = _number(float, allow_zero=False)
_non_negative_float = _number(float, allow_zero=True)


#: Workload mix cycled by bare-integer ``--jobs N`` tokens; deliberately
#: memory-hungry so that a default run oversubscribes device memory and
#: exercises the swap path.
DEFAULT_JOB_MIX = ("MM-L", "BS-L")


def _job_token(token: str) -> str:
    """Validate one ``--jobs`` token — ``N``, ``TAG`` or ``TAG:N`` — so a
    typo is a usage error naming the known tags, not a traceback."""
    if token.isdigit():
        return token
    tag, colon, count = token.partition(":")
    known = sorted(w.tag for w in ALL_WORKLOADS)
    if tag not in known:
        raise argparse.ArgumentTypeError(
            f"unknown workload {tag!r}; choose from {known}"
        )
    if colon and not count.isdigit():
        raise argparse.ArgumentTypeError(
            f"bad job count {count!r} in {token!r}; expected TAG:N"
        )
    return token


def _parse_jobs(tokens: List[str], cpu_fraction: float, use_runtime: bool = True):
    jobs = []

    def add(spec) -> None:
        if cpu_fraction and spec.tag in ("MM-S", "MM-L"):
            spec = spec.with_cpu_fraction(cpu_fraction)
        jobs.append(
            make_job(
                spec,
                name=f"{spec.tag}#{len(jobs)}",
                use_runtime=use_runtime,
                static_device=len(jobs) if not use_runtime else None,
            )
        )

    for token in tokens:
        if token.isdigit():
            # Bare count: cycle the default mix.
            for i in range(int(token)):
                add(workload(DEFAULT_JOB_MIX[i % len(DEFAULT_JOB_MIX)]))
            continue
        if ":" in token:
            tag, count = token.split(":", 1)
            count = int(count)
        else:
            tag, count = token, 1
        spec = workload(tag)
        for _ in range(count):
            add(spec)
    return jobs


def cmd_devices(_args) -> int:
    rows = [
        [
            name,
            spec.name,
            str(spec.sm_count),
            str(spec.core_count),
            f"{spec.clock_ghz:.2f}",
            f"{spec.memory_bytes / 1024**3:.0f}",
            f"{spec.effective_gflops:.0f}",
        ]
        for name, spec in GPU_PRESETS.items()
    ]
    print(format_table(
        ["preset", "card", "SMs", "cores", "GHz", "GiB", "eff GFLOPS"], rows
    ))
    return 0


def cmd_catalog(_args) -> int:
    rows = [
        [
            spec.tag,
            spec.name,
            str(spec.kernel_calls),
            f"{spec.gpu_seconds_c2050:.1f}",
            f"{spec.total_bytes / 1024**2:.0f}",
            "long" if spec.long_running else "short",
        ]
        for spec in ALL_WORKLOADS
    ]
    print(format_table(
        ["tag", "program", "kernel calls", "GPU s (C2050)", "MiB", "class"], rows
    ))
    return 0


def _run_config(args, tracing: bool) -> RuntimeConfig:
    """The RuntimeConfig both ``run`` modes build from the shared flags."""
    return RuntimeConfig(
        vgpus_per_device=args.vgpus,
        policy=args.policy,
        migration_enabled=args.migration,
        kernel_consolidation=args.consolidation,
        defer_transfers=not args.eager_transfers,
        overlap_transfers=args.overlap,
        prefetch_enabled=args.prefetch,
        swap_chunk_bytes=args.swap_chunk_mib * 1024**2,
        eviction_mode=args.eviction_mode,
        eviction_policy=args.eviction_policy,
        tracing=tracing,
        qos_enabled=args.qos,
        vgpu_quantum_s=args.vgpu_quantum_s,
        locality_binding=args.locality,
        launch_control_plane_s=args.launch_control_plane_s,
        batch_max_calls=args.batch_max_calls,
        graph_replay_enabled=args.graph_replay,
    )


def cmd_run_trace(args) -> int:
    import dataclasses as _dc
    import json as _json

    from repro.workloads.trace_replay import (
        REPLAY_SWAP_CAPACITY_BYTES,
        load_trace,
        replay_trace,
        synthetic_trace,
    )

    if args.bare:
        print("trace replay drives the runtime; --bare is not supported",
              file=sys.stderr)
        return 2
    if bool(args.trace) == bool(args.synthetic):
        print("trace mode needs exactly one of --trace FILE or --synthetic N",
              file=sys.stderr)
        return 2
    if args.trace:
        trace = load_trace(args.trace)
        source = args.trace
    else:
        trace = synthetic_trace(
            args.synthetic, seed=args.seed,
            arrival_rate_per_s=args.arrival_rate,
        )
        source = f"synthetic({args.synthetic}, seed={args.seed})"
    try:
        config = _run_config(args, tracing=bool(args.trace_out or args.events_out))
    except ValueError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    collector = None
    if args.trace_out or args.metrics_out or args.events_out:
        collector = ObsCollector(
            trace_path=args.trace_out,
            metrics_path=args.metrics_out,
            events_path=args.events_out,
        )
    # Trace backlogs park hundreds of queued jobs' allocations in host
    # swap; size it like the replay harness's default, not like a
    # single-node batch box.
    config = _dc.replace(
        config, host_swap_capacity_bytes=REPLAY_SWAP_CAPACITY_BYTES
    )
    result = replay_trace(
        trace,
        nodes=args.nodes,
        gpus_per_node=args.gpus_per_node,
        policy=args.policy,
        config=config,
        cpu_fraction=args.cpu_fraction,
        label=f"cli:{args.policy}",
        collector=collector,
    )
    metrics = result.metrics()
    print(f"trace: {source}   jobs: {len(trace)}   "
          f"nodes: {result.nodes} ({result.gpus} GPUs)   policy: {args.policy}")
    rows = [[key, f"{value:.4f}" if isinstance(value, float) else str(value)]
            for key, value in metrics.items()]
    print(format_table(["metric", "value"], rows))
    if args.bench_out:
        with open(args.bench_out, "w", encoding="utf-8") as fh:
            _json.dump({"label": result.label, "policy": args.policy,
                        "nodes": result.nodes, "gpus": result.gpus,
                        "metrics": metrics}, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"bench      : {args.bench_out}")
    if collector is not None:
        collector.flush()
    return 0 if result.errors == 0 else 1


def cmd_run(args) -> int:
    if args.mode == "trace":
        return cmd_run_trace(args)
    if not args.jobs:
        print("batch mode needs --jobs (or use: repro run trace ...)",
              file=sys.stderr)
        return 2
    jobs = _parse_jobs(args.jobs, args.cpu_fraction, use_runtime=not args.bare)
    if not jobs:
        print("no jobs requested", file=sys.stderr)
        return 2
    config = None
    if not args.bare:
        try:
            config = _run_config(args, tracing=bool(args.trace_out or args.events_out))
        except ValueError as exc:
            print(f"repro run: {exc}", file=sys.stderr)
            return 2
    collector = None
    if args.trace_out or args.metrics_out or args.events_out:
        if args.bare:
            print("--trace-out/--metrics-out/--events-out need the runtime; "
                  "ignored with --bare", file=sys.stderr)
        else:
            collector = ObsCollector(
                trace_path=args.trace_out,
                metrics_path=args.metrics_out,
                events_path=args.events_out,
            )
    result = run_node_batch(jobs, args.gpus, config, label="cli",
                            collector=collector)
    print(f"jobs: {len(jobs)}   gpus: {len(args.gpus)}   "
          f"mode: {'bare CUDA' if args.bare else f'{args.vgpus} vGPUs/{args.policy}'}")
    print(f"total time : {result.total_time:10.2f} simulated s")
    print(f"avg time   : {result.avg_time:10.2f} simulated s")
    print(f"errors     : {result.errors}")
    if result.stats:
        interesting = {
            k: v for k, v in sorted(result.stats.items()) if v and k != "calls_served"
        }
        print("runtime stats:")
        for key, value in interesting.items():
            print(f"  {key:24s} {value}")
    if collector is not None:
        collector.flush()
        if args.trace_out:
            print(f"trace      : {args.trace_out}")
        if args.metrics_out:
            print(f"metrics    : {args.metrics_out}")
        if args.events_out:
            print(f"events     : {args.events_out}")
    return 0 if result.errors == 0 else 1


def cmd_obs_report(args) -> int:
    from repro.obs import load_phase_breakdowns, render_jobs_report, render_report

    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            records = load_phase_breakdowns(fh)
    except OSError as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"no PhaseBreakdown events in {args.trace} "
              "(was the run traced with --events-out?)", file=sys.stderr)
        return 1
    if args.jobs:
        print(render_jobs_report(records, top=args.top))
    else:
        print(render_report(records, top=args.top))
    return 0


def cmd_reproduce(args) -> int:
    from repro.experiments.reproduce import main as reproduce_main

    argv = list(args.figures)
    if args.quick:
        argv.append("--quick")
    argv += ["--seed", str(args.seed)]
    return reproduce_main(argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list GPU hardware presets").set_defaults(
        func=cmd_devices
    )
    sub.add_parser("catalog", help="list the Table 2 benchmarks").set_defaults(
        func=cmd_catalog
    )

    run = sub.add_parser(
        "run",
        help="run a job batch on one simulated node, or replay a "
             "production trace across a cluster (run trace ...)",
    )
    run.add_argument("mode", nargs="?", default="batch",
                     choices=("batch", "trace"),
                     help="'batch' (default): a job mix on one node; "
                          "'trace': open-loop trace replay on a cluster")
    run.add_argument("--jobs", nargs="+", type=_job_token, metavar="TAG[:N]|N",
                     help="e.g. MM-L:6 BS-L:2 HS, or a bare count "
                          "(cycles a default memory-heavy mix)")
    run.add_argument("--gpus", type=_parse_gpus, default=[TESLA_C2050],
                     help="comma list of presets (default: c2050)")
    run.add_argument("--vgpus", type=int, default=4)
    run.add_argument("--policy", default="fcfs", choices=POLICY_NAMES)
    run.add_argument("--cpu-fraction", type=_non_negative_float, default=0.0,
                     help="injected CPU fraction for MM-S/MM-L")
    run.add_argument("--bare", action="store_true",
                     help="bare CUDA runtime instead of the paper's runtime")
    run.add_argument("--migration", action="store_true")
    run.add_argument("--consolidation", action="store_true")
    run.add_argument("--eager-transfers", action="store_true",
                     help="disable transfer deferral")
    run.add_argument("--overlap", action="store_true",
                     help="pipeline bulk transfers and write-backs through "
                          "per-vGPU copy streams (overlap engine)")
    run.add_argument("--swap-chunk-mib", type=int, default=0, metavar="MIB",
                     help="demand-paging chunk size in MiB "
                          "(0 = whole-entry granularity)")
    run.add_argument("--eviction-mode", default="context",
                     choices=("context", "partial"),
                     help="inter-application eviction: whole-context swap "
                          "or byte-proportional partial eviction")
    run.add_argument("--eviction-policy", default="lru",
                     choices=EVICTION_POLICY_NAMES,
                     help="victim ordering for --eviction-mode=partial "
                          "(cost_aware also needs --locality)")
    run.add_argument("--qos", action="store_true",
                     help="enable multi-tenant QoS (admission control, "
                          "tenant quotas, vGPU shares)")
    run.add_argument("--vgpu-quantum-s", type=float, default=None,
                     metavar="S",
                     help="preempt a bound context at call boundaries after "
                          "S seconds of GPU time when others wait")
    run.add_argument("--locality", action="store_true",
                     help="locality-aware dynamic binding: retain device "
                          "working sets across unbinds and place/migrate/"
                          "evict by the transfer-cost model")
    run.add_argument("--launch-control-plane-s", type=float, default=0.0,
                     metavar="S",
                     help="per-launch driver control-plane cost to model "
                          "(0 = free launches, the historic behavior)")
    run.add_argument("--batch-max-calls", type=int, default=1, metavar="N",
                     help="frontend ships up to N journaled calls per RPC "
                          "(1 = per-call dispatch)")
    run.add_argument("--graph-replay", action="store_true",
                     help="detect repeated launch sequences and replay them "
                          "as instantiated graphs")
    run.add_argument("--prefetch", action="store_true",
                     help="stage the predicted next-launch working set "
                          "during CPU phases (needs --overlap)")
    run.add_argument("--trace", metavar="FILE",
                     help="[trace mode] replay this CSV/JSON-lines trace file")
    run.add_argument("--synthetic", type=_non_negative_int, default=0, metavar="N",
                     help="[trace mode] generate an N-job synthetic "
                          "trace-shaped workload instead of loading a file")
    run.add_argument("--nodes", type=_positive_int, default=8, metavar="K",
                     help="[trace mode] cluster size (default 8)")
    run.add_argument("--gpus-per-node", type=_positive_int, default=2, metavar="G",
                     help="[trace mode] GPUs per node (default 2)")
    run.add_argument("--seed", type=int, default=0, metavar="S",
                     help="[trace mode] synthetic generator seed")
    run.add_argument("--arrival-rate", type=_positive_float, default=10.0,
                     metavar="JOBS_PER_S",
                     help="[trace mode] synthetic mean arrival rate")
    run.add_argument("--bench-out", metavar="FILE",
                     help="[trace mode] write replay metrics as JSON")
    run.add_argument("--trace-out", metavar="FILE",
                     help="write a Chrome trace-event JSON of the run")
    run.add_argument("--metrics-out", metavar="FILE",
                     help="write Prometheus-style metrics text for the run")
    run.add_argument("--events-out", metavar="FILE",
                     help="write the raw typed event stream as JSON lines "
                          "(input for 'repro obs report')")
    run.set_defaults(func=cmd_run)

    obs = sub.add_parser("obs", help="observability tools")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    report = obs_sub.add_parser(
        "report",
        help="bottleneck attribution from a JSON-lines trace",
        description="Read a JSON-lines event trace (the --events-out file "
                    "of 'repro run') and print per-tenant and per-context "
                    "phase attribution tables plus the slowest calls.",
    )
    report.add_argument("trace", help="JSON-lines trace file")
    report.add_argument("--jobs", action="store_true",
                        help="per-job / per-user JCT tables instead of "
                             "phase attribution")
    report.add_argument("--top", type=int, default=10, metavar="N",
                        help="critical-path rows to show (default 10)")
    report.set_defaults(func=cmd_obs_report)

    rep = sub.add_parser("reproduce", help="regenerate the paper's figures")
    rep.add_argument("figures", nargs="*", default=[])
    rep.add_argument("--quick", action="store_true")
    rep.add_argument("--seed", type=int, default=0)
    rep.set_defaults(func=cmd_reproduce)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
