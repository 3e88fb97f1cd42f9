"""Exporter round-trips: Chrome trace JSON, Prometheus text, JSON lines."""

import dataclasses
import json
import re

import pytest

from repro.core.stats import RuntimeStats
from repro.obs import (
    EVENT_TYPES,
    Bind,
    Migration,
    MetricsRegistry,
    PhaseBreakdown,
    QueueDepthChanged,
    SwapOut,
    chrome_trace,
    event_to_dict,
    json_lines,
    prometheus_text,
    write_chrome_trace,
)

EVENTS = [
    Bind(at=1.0, context="app0", vgpu="vGPU0-1", device_id=0, node="n0"),
    PhaseBreakdown(at=2.2, context="app0", method="cudaLaunch", begin_at=1.2,
                   wall=1.0, served_at=1.5, served_s=0.5,
                   phases=(("exec", 0.5), ("rpc", 0.5)), device_id=0,
                   vgpu="vGPU0-1", node="n0"),
    SwapOut(at=2.5, context="app0", nbytes=4096, device_id=0,
            vgpu="vGPU0-1", node="n0"),
    Migration(at=3.0, context="app0", src_device=0, dst_device=1, node="n0"),
    QueueDepthChanged(at=3.5, queue="waiting_contexts", depth=2, node="n0"),
]


def test_chrome_trace_structure():
    trace = chrome_trace(EVENTS)
    assert trace["displayTimeUnit"] == "ms"
    events = trace["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(spans) == 1
    span = spans[0]
    assert span["name"] == "cudaLaunch"
    assert span["ts"] == 1.5e6 and span["dur"] == 0.5e6  # seconds → µs
    assert {e["name"] for e in instants} == {
        "Bind", "SwapOut", "Migration", "QueueDepthChanged"
    }
    assert all(e["s"] == "t" for e in instants)
    # args never leak redundant fields or nulls
    for e in spans + instants:
        assert not {"at", "kind", "node"} & set(e["args"])
        assert None not in e["args"].values()
    names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    assert names == {"n0/GPU0", "n0/runtime"}


#: A placeholder per annotated field type, to build any event kind.
_PLACEHOLDER = {"float": 1.0, "str": "x", "int": 1, "bool": False}


@pytest.mark.parametrize("kind", EVENT_TYPES, ids=lambda kind: kind.kind)
def test_chrome_trace_renders_every_event_kind(kind):
    """No kind is dropped: each event becomes exactly one trace event."""
    event = kind(**{
        f.name: _PLACEHOLDER[f.type]
        for f in dataclasses.fields(kind)
        if f.default is dataclasses.MISSING
    })
    rendered = [e for e in chrome_trace([event])["traceEvents"] if e["ph"] != "M"]
    assert len(rendered) == 1


def test_chrome_trace_rows_stable():
    """Events on the same (node, device, vGPU) share one pid/tid row."""
    trace = chrome_trace(EVENTS)
    rows = {
        (e["pid"], e["tid"])
        for e in trace["traceEvents"]
        if e["ph"] in ("X", "i") and e["args"].get("vgpu") == "vGPU0-1"
    }
    assert len(rows) == 1


def test_chrome_trace_file_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), EVENTS)
    data = json.loads(path.read_text())
    assert data["traceEvents"]


def test_json_lines_round_trip():
    text = json_lines(EVENTS)
    lines = text.strip().split("\n")
    assert len(lines) == len(EVENTS)
    decoded = [json.loads(line) for line in lines]
    # JSON has no tuples: compare against the JSON-normalised dicts
    assert decoded == [json.loads(json.dumps(event_to_dict(e))) for e in EVENTS]


PROM_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?\d+(\.\d+)?([eE]-?\d+)?|\+Inf)$"
)


def test_prometheus_text_format():
    reg = MetricsRegistry(node="n0")
    reg.attach_stats(RuntimeStats(calls_served=3))
    reg.counter("net_messages_total", "messages").inc(7)
    h = reg.histogram("call_latency_seconds", "latency", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    text = prometheus_text(reg)
    lines = text.strip().split("\n")
    for line in lines:
        assert line.startswith("#") or PROM_LINE.match(line), line
    assert "# TYPE call_latency_seconds histogram" in lines
    assert 'call_latency_seconds_bucket{node="n0",le="0.1"} 1' in lines
    assert 'call_latency_seconds_bucket{node="n0",le="1"} 2' in lines
    assert 'call_latency_seconds_bucket{node="n0",le="+Inf"} 3' in lines
    assert 'call_latency_seconds_count{node="n0"} 3' in lines
    assert 'runtime_calls_served{node="n0"} 3' in lines
    assert 'net_messages_total{node="n0"} 7' in lines


def test_prometheus_merges_nodes_with_one_header():
    regs = []
    for node in ("n0", "n1"):
        reg = MetricsRegistry(node=node)
        reg.counter("net_messages_total").inc(1)
        regs.append(reg)
    text = prometheus_text(*regs)
    assert text.count("# TYPE net_messages_total counter") == 1
    assert 'net_messages_total{node="n0"} 1' in text
    assert 'net_messages_total{node="n1"} 1' in text
