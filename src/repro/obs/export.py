"""Exporters: Chrome trace-event JSON, Prometheus text, JSON lines.

The Chrome trace maps the runtime's sharing structure onto the trace
viewer's process/thread hierarchy: one "process" per physical device
(plus one host-side pseudo-process per node for calls served while
unbound), one "thread" per vGPU — so Perfetto / ``chrome://tracing``
render exactly the paper's time-sharing timeline: which application held
which vGPU when, with swaps, migrations and offloads as instant markers.

Timestamps are simulated seconds converted to the trace format's
microseconds.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import EngineSpan, PhaseBreakdown, QueueDepthChanged, event_to_dict
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "prometheus_text",
    "write_prometheus",
    "json_lines",
    "write_json_lines",
]

_US = 1e6  # seconds → trace-event microseconds


class _IdMaps:
    """Stable pid/tid assignment over (node, device) and row labels."""

    def __init__(self) -> None:
        self._pids: Dict[Tuple[str, Optional[int]], int] = {}
        self._tids: Dict[Tuple[int, str], int] = {}
        self.process_names: Dict[int, str] = {}
        self.thread_names: Dict[Tuple[int, int], str] = {}

    def pid(self, node: str, device_id: Optional[int]) -> int:
        key = (node, device_id)
        if key not in self._pids:
            self._pids[key] = len(self._pids) + 1
            label = f"{node or 'node'}/GPU{device_id}" if device_id is not None else (
                f"{node or 'node'}/runtime"
            )
            self.process_names[self._pids[key]] = label
        return self._pids[key]

    def tid(self, pid: int, label: str) -> int:
        key = (pid, label)
        if key not in self._tids:
            self._tids[key] = len([k for k in self._tids if k[0] == pid]) + 1
            self.thread_names[(pid, self._tids[key])] = label
        return self._tids[key]


def _row(maps: _IdMaps, event: Any) -> Tuple[int, int]:
    """(pid, tid) for one event: vGPU row when bound, else a per-context
    (or per-queue) row in the node's host pseudo-process."""
    device_id = getattr(event, "device_id", None)
    pid = maps.pid(event.node, device_id)
    if getattr(event, "vgpu", None) is not None:
        label = event.vgpu
    elif isinstance(event, QueueDepthChanged):
        label = event.queue
    else:
        label = getattr(event, "context", "runtime")
    return pid, maps.tid(pid, label)


def _args(event: Any) -> Dict[str, Any]:
    d = event_to_dict(event)
    for drop in ("at", "kind", "node"):
        d.pop(drop, None)
    return {k: v for k, v in d.items() if v is not None}


def chrome_trace(events: Iterable[Any]) -> Dict[str, Any]:
    """Build a ``chrome://tracing`` / Perfetto JSON object.

    Each ``PhaseBreakdown`` becomes the call's complete ("X") span over
    its server interval (``served_at``/``served_s``) on the serving vGPU's
    row; ``EngineSpan`` events become "X" spans on per-engine rows; every
    other event kind becomes a thread-scoped instant ("i") marker.
    """
    maps = _IdMaps()
    trace_events: List[Dict[str, Any]] = []
    for event in events:
        if isinstance(event, EngineSpan):
            # One row per device engine, so concurrent copy/exec spans
            # render as the §4.5 overlap directly under the vGPU rows.
            pid = maps.pid(event.node, event.device_id)
            tid = maps.tid(pid, f"{event.engine}-engine")
            trace_events.append(
                {
                    "name": event.op,
                    "cat": "engine",
                    "ph": "X",
                    "ts": event.begin_at * _US,
                    "dur": event.duration * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": _args(event),
                }
            )
        elif isinstance(event, PhaseBreakdown):
            pid, tid = _row(maps, event)
            trace_events.append(
                {
                    "name": event.method,
                    "cat": "call",
                    "ph": "X",
                    "ts": event.served_at * _US,
                    "dur": event.served_s * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": _args(event),
                }
            )
        else:
            # Every other kind is a marker on the owning vGPU row (or
            # the node's host row when the event carries no device).
            pid, tid = _row(maps, event)
            trace_events.append(
                {
                    "name": event.kind,
                    "cat": "runtime",
                    "ph": "i",
                    "s": "t",
                    "ts": event.at * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": _args(event),
                }
            )
    metadata: List[Dict[str, Any]] = []
    for pid, name in sorted(maps.process_names.items()):
        metadata.append(
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": name}}
        )
    for (pid, tid), name in sorted(maps.thread_names.items()):
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: Iterable[Any]) -> None:
    # ``json.dumps`` runs the C encoder; ``json.dump`` to a file streams
    # through the pure-Python one, several times slower, for the same
    # bytes.
    text = json.dumps(chrome_trace(events))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------

def _sanitize(name: str) -> str:
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _labels(registry: MetricsRegistry, extra: str = "") -> str:
    parts = []
    if registry.node:
        parts.append(f'node="{registry.node}"')
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(*registries: MetricsRegistry) -> str:
    """Prometheus exposition text for one or more node registries.

    Each sample carries a ``node`` label, so registries from different
    nodes coexist in one scrape body; HELP/TYPE headers are emitted once
    per metric name.
    """
    lines: List[str] = []
    seen_headers = set()

    def header(name: str, mtype: str, help_text: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")

    for registry in registries:
        for prefix, stats in registry._stats_sources:
            for key, value in sorted(stats.as_dict().items()):
                name = _sanitize(f"{prefix}{key}")
                header(name, "counter", f"RuntimeStats.{key}")
                lines.append(f"{name}{_labels(registry)} {_fmt(value)}")
        for metric in registry.metrics():
            name = _sanitize(metric.name)
            if isinstance(metric, Histogram):
                header(name, "histogram", metric.help)
                for bound, cum in metric.cumulative():
                    le = 'le="%s"' % _fmt(bound)
                    lines.append(f"{name}_bucket{_labels(registry, le)} {cum}")
                lines.append(f"{name}_sum{_labels(registry)} {_fmt(metric.sum)}")
                lines.append(f"{name}_count{_labels(registry)} {metric.count}")
            else:
                header(name, metric.metric_type, metric.help)
                lines.append(f"{name}{_labels(registry)} {_fmt(metric.value)}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, *registries: MetricsRegistry) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(prometheus_text(*registries))


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------

def json_lines(events: Iterable[Any]) -> str:
    """One JSON object per line, ``kind`` field first for grep-ability."""
    return "\n".join(
        json.dumps(event_to_dict(e), sort_keys=True) for e in events
    ) + "\n"


def write_json_lines(path: str, events: Iterable[Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_lines(events))
