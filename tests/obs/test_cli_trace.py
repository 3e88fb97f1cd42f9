"""End-to-end acceptance: `repro-sim run --vgpus 4 --jobs 8 --trace-out ...`
produces a valid Chrome trace and Prometheus metrics."""

import json

from repro.cli import main


def run_cli(tmp_path):
    trace_path = tmp_path / "t.json"
    metrics_path = tmp_path / "m.txt"
    rc = main([
        "run", "--vgpus", "4", "--jobs", "8",
        "--trace-out", str(trace_path),
        "--metrics-out", str(metrics_path),
    ])
    assert rc == 0
    return trace_path, metrics_path


def test_cli_trace_validates_against_trace_event_schema(tmp_path):
    trace_path, metrics_path = run_cli(tmp_path)
    data = json.loads(trace_path.read_text())
    assert data["displayTimeUnit"] == "ms"
    events = data["traceEvents"]
    assert events
    for e in events:
        assert e["ph"] in ("X", "i", "M")
        assert isinstance(e["name"], str) and isinstance(e["pid"], int)
        if e["ph"] == "X":
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert isinstance(e["tid"], int)
        elif e["ph"] == "i":
            assert e["s"] == "t" and e["ts"] >= 0

    # One trace-viewer "process" per device plus the host pseudo-process.
    process_names = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    gpu_pids = [p for p, n in process_names.items() if "/GPU" in n]
    assert len(gpu_pids) == 1  # single C2050

    # Call spans (one per PhaseBreakdown) appear on every one of the 4
    # vGPU rows; the device's copy/exec engine-occupancy rows sit beside
    # them.
    (gpu_pid,) = gpu_pids
    span_tids = {
        e["tid"] for e in events if e["ph"] == "X" and e["pid"] == gpu_pid
    }
    thread_names = {
        (e["pid"], e["tid"]): e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    vgpu_tids = {t for t in span_tids if "vGPU" in thread_names[(gpu_pid, t)]}
    engine_tids = {t for t in span_tids if "engine" in thread_names[(gpu_pid, t)]}
    assert len(vgpu_tids) == 4
    assert vgpu_tids | engine_tids == span_tids
    # The default mix launches kernels and moves memory, so both engines
    # must have occupancy spans.
    engine_names = {thread_names[(gpu_pid, t)] for t in engine_tids}
    assert engine_names == {"exec-engine", "copy-engine"}

    # The memory-heavy default mix oversubscribes the device: swap-in
    # instants must be present (and binding churn with them).
    instants = {e["name"] for e in events if e["ph"] == "i"}
    assert {"SwapIn", "Bind", "Unbind"} <= instants
    # In this mix every kernel argument the application reads back is a
    # read-only buffer, so no device→host write-back ever happens: a
    # SwapOut instant here would be the phantom clean-entry emission the
    # accounting unification removed.  The trace must agree with the
    # counter.
    swap_out_events = [e for e in events if e["ph"] == "i" and e["name"] == "SwapOut"]
    assert not swap_out_events
    assert 'runtime_swap_bytes_out{node="node0-rt"} 0' in metrics_path.read_text()


def test_cli_metrics_file_has_histograms_and_stats(tmp_path):
    _, metrics_path = run_cli(tmp_path)
    text = metrics_path.read_text()
    assert "# TYPE call_latency_seconds histogram" in text
    assert "# TYPE swap_out_bytes histogram" in text
    assert 'call_latency_seconds_bucket{node="node0-rt",le="+Inf"}' in text
    assert 'runtime_calls_served{node="node0-rt"}' in text
    assert 'vgpus_total{node="node0-rt"} 4' in text
