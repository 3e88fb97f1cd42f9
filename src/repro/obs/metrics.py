"""Lightweight metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the one consistent schema the runtime
exposes — :func:`repro.core.monitor.node_report` embeds its snapshot, the
GPU-aware TORQUE mode and the VM-cloud manager read it, and the
Prometheus/JSON exporters in :mod:`repro.obs.export` serialize it.

The registry *wraps* :class:`~repro.core.stats.RuntimeStats` rather than
replacing it: the flat dataclass counters stay the source of truth for
the figure benches, and :meth:`MetricsRegistry.attach_stats` folds them
into every snapshot/export as counters.  Gauges may be backed by a
callback so the snapshot always reflects live runtime state without the
runtime pushing updates.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "LATENCY_BUCKETS_S",
    "BYTES_BUCKETS",
    "QUEUE_WAIT_BUCKETS_S",
]

#: Call latency: interception overhead is tens of µs; kernels run seconds.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)
#: Swap traffic: one PTE ranges from KiBs to the paper's GiB-sized inputs.
BYTES_BUCKETS: Tuple[float, ...] = (
    4 * 1024.0,
    64 * 1024.0,
    1024.0**2,
    16 * 1024.0**2,
    256 * 1024.0**2,
    1024.0**3,
    4 * 1024.0**3,
)
#: vGPU queue wait: zero when idle vGPUs exist, seconds-to-minutes when
#: the node is oversubscribed.
QUEUE_WAIT_BUCKETS_S: Tuple[float, ...] = (
    1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0,
)


class Counter:
    """A monotonically increasing value."""

    metric_type = "counter"
    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go up and down; optionally callback-backed."""

    metric_type = "gauge"
    __slots__ = ("name", "help", "_value", "_fn")

    def __init__(self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name} is callback-backed")
        self._value = value

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Fixed-bucket histogram (Prometheus-style cumulative export).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket is always
    present.  Observations are binned with :func:`bisect.bisect_left` so
    a value equal to a bound lands in that bound's bucket (``le`` —
    *less than or equal* — semantics).
    """

    metric_type = "histogram"
    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ):
        if not buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        bounds = sorted(set(float(b) for b in buckets))
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"histogram {name} buckets must be finite")
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(bounds)
        #: counts[i] observations fell in (bounds[i-1], bounds[i]];
        #: counts[-1] is the +Inf overflow bucket.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[Tuple[float, int]]:
        """[(upper_bound, cumulative_count)...] ending with (inf, count)."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, c in zip(self.bounds, self.counts):
            running += c
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "buckets": {str(b): c for b, c in self.cumulative()},
        }


class MetricsRegistry:
    """Named metrics for one node runtime.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same object; asking with a conflicting
    type raises.  ``node`` becomes the Prometheus label on every exported
    sample, so multi-node collections merge into one scrape body.
    """

    def __init__(self, node: str = ""):
        self.node = node
        self._metrics: Dict[str, Any] = {}
        #: (prefix, stats-like object with .as_dict()) pairs folded into
        #: snapshots as counters.
        self._stats_sources: List[Tuple[str, Any]] = []

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, *args, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.metric_type}"
                )
            return existing
        metric = cls(name, *args, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(
        self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, fn)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets)

    def attach_stats(self, stats: Any, prefix: str = "runtime_") -> None:
        """Fold a ``RuntimeStats``-like object (anything with
        ``as_dict()``) into snapshots and exports as counters."""
        self._stats_sources.append((prefix, stats))

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def metrics(self) -> List[Any]:
        return list(self._metrics.values())

    def snapshot(self) -> Dict[str, Any]:
        """Flat name→value dict: counters/gauges as numbers, histograms
        as ``{count, sum, buckets}`` sub-dicts, attached stats counters
        under their prefix."""
        snap: Dict[str, Any] = {}
        for prefix, stats in self._stats_sources:
            for key, value in stats.as_dict().items():
                snap[f"{prefix}{key}"] = value
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                snap[name] = metric.snapshot()
            else:
                snap[name] = metric.value
        return snap

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {self.node or 'anonymous'} "
            f"metrics={len(self._metrics)} stats_sources={len(self._stats_sources)}>"
        )
