"""Observability: structured tracing and metrics for the runtime.

Three layers (see ``docs/observability.md``):

- :mod:`repro.obs.events` — a zero-dependency structured event bus keyed
  on the simulation clock (:class:`Tracer` + typed events);
- :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  in a :class:`MetricsRegistry` that wraps ``RuntimeStats``;
- :mod:`repro.obs.export` — Chrome trace-event JSON (one process per
  device, one thread per vGPU), Prometheus text, and JSON-lines dumps.

:class:`ObsCollector` ties them together for one experiment run.
"""

from repro.obs.events import (
    BatchSubmit,
    Bind,
    BindingDecision,
    CheckpointTaken,
    EngineSpan,
    EVENT_TYPES,
    Eviction,
    FailureRecovered,
    GraphInstantiate,
    GraphReplay,
    Migration,
    Offload,
    PhaseBreakdown,
    Preemption,
    QueueDepthChanged,
    SwapIn,
    SwapOut,
    TenantAdmission,
    Tracer,
    Unbind,
    event_to_dict,
)
from repro.obs.span import CallSpan, PHASES
from repro.obs.slo import SLOMonitor, percentile
from repro.obs.report import (
    aggregate_phases,
    critical_path,
    job_completion,
    load_phase_breakdowns,
    per_user_jct,
    render_jobs_report,
    render_report,
)
from repro.obs.metrics import (
    BYTES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    QUEUE_WAIT_BUCKETS_S,
)
from repro.obs.export import (
    chrome_trace,
    json_lines,
    prometheus_text,
    write_chrome_trace,
    write_json_lines,
    write_prometheus,
)
from repro.obs.collector import ObsCollector

__all__ = [
    # events
    "BatchSubmit",
    "Bind",
    "BindingDecision",
    "CheckpointTaken",
    "EngineSpan",
    "EVENT_TYPES",
    "Eviction",
    "FailureRecovered",
    "GraphInstantiate",
    "GraphReplay",
    "Migration",
    "Offload",
    "PhaseBreakdown",
    "Preemption",
    "QueueDepthChanged",
    "SwapIn",
    "SwapOut",
    "TenantAdmission",
    "Tracer",
    "Unbind",
    "event_to_dict",
    # spans + SLO + analyzer
    "CallSpan",
    "PHASES",
    "SLOMonitor",
    "percentile",
    "aggregate_phases",
    "critical_path",
    "job_completion",
    "load_phase_breakdowns",
    "per_user_jct",
    "render_jobs_report",
    "render_report",
    # metrics
    "BYTES_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "QUEUE_WAIT_BUCKETS_S",
    # export
    "chrome_trace",
    "json_lines",
    "prometheus_text",
    "write_chrome_trace",
    "write_json_lines",
    "write_prometheus",
    # collector
    "ObsCollector",
]
