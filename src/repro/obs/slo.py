"""Per-tenant windowed time accounting.

The QoS layer (:mod:`repro.qos`) *makes* isolation decisions; this
module makes them *auditable*.  An :class:`SLOMonitor` keeps a sliding
window (``WINDOW_S`` simulated seconds) of per-tenant call
turnaround and scheduler queue-wait samples and computes p50/p99
rollups on demand, surfaced under the ``"slo"`` key of
``node_report()``.

The monitor is always on (unlike tracing): it is fed from the
dispatcher's existing latency-observation site and from the scheduler's
queue-wait hook, consumes no simulated time, and costs two appends per
call.  Calls made before the handshake names a tenant are accounted
under the pseudo-tenant ``"-"``.

Each series (a tenant's turnaround, a tenant's queue wait) is two flat
``array('d')`` columns, sample times and values, oldest first, plus a
head index marking the window start: a sample costs 16 bytes, not a
tuple and two float objects.  Samples older than ``WINDOW_S`` are
dropped from the front in bulk when a series reaches ``COMPACT_MIN``
samples or twice what its last compaction kept; the window a rollup
reads is the same as if each sample were pruned on arrival.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Any, Dict

__all__ = ["SLOMonitor", "percentile"]

#: Width of the sliding window over which the monitor computes
#: turnaround/queue-wait percentiles (simulated seconds).
WINDOW_S = 60.0


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation; 0.0 if empty."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return data[0]
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


#: A series is compacted when it holds this many samples, or twice as
#: many as it kept at its last compaction, whichever is larger.
COMPACT_MIN = 4096


class _Series:
    """One sliding-window series: sample times and values in two flat
    columns.  ``at[head:]`` is the window as of the last prune."""

    __slots__ = ("at", "value", "head", "limit")

    def __init__(self) -> None:
        self.at = array("d")
        self.value = array("d")
        self.head = 0
        self.limit = COMPACT_MIN

    def prune(self, now: float) -> None:
        """Move the window start past every sample with
        ``at < now - WINDOW_S`` (sample times never decrease)."""
        self.head = bisect_left(self.at, now - WINDOW_S, self.head)

    def compact(self, now: float) -> None:
        """Prune, then drop the samples before the window start."""
        self.prune(now)
        del self.at[: self.head]
        del self.value[: self.head]
        self.head = 0
        self.limit = max(COMPACT_MIN, 2 * len(self.at))

    def window(self, now: float) -> array:
        """The values of the samples inside the window ending at ``now``."""
        self.prune(now)
        return self.value[self.head :]


class _Window:
    """One tenant's sliding-window samples."""

    __slots__ = ("turnaround", "queue_wait", "calls_total")

    def __init__(self) -> None:
        self.turnaround = _Series()
        self.queue_wait = _Series()
        self.calls_total = 0


class SLOMonitor:
    """Sliding-window SLO accounting for every tenant on a node."""

    def __init__(self, env) -> None:
        self.env = env
        self._windows: Dict[str, _Window] = {}

    # ------------------------------------------------------------------
    def _window(self, tenant_name: str) -> _Window:
        w = self._windows.get(tenant_name)
        if w is None:
            w = self._windows[tenant_name] = _Window()
        return w

    @staticmethod
    def _tenant_of(ctx) -> str:
        return getattr(getattr(ctx, "tenant", None), "name", "") or "-"

    # ------------------------------------------------------------------
    def observe_call(self, ctx, latency_s: float) -> None:
        """One completed call's turnaround (dispatcher finally-block)."""
        now = self.env.now
        w = self._window(self._tenant_of(ctx))
        w.calls_total += 1
        series = w.turnaround
        series.at.append(now)
        series.value.append(latency_s)
        if len(series.at) >= series.limit:
            series.compact(now)

    def observe_queue_wait(self, ctx, wait_s: float) -> None:
        """One binding's scheduler queue wait (Scheduler.queue_wait_hook)."""
        now = self.env.now
        series = self._window(self._tenant_of(ctx)).queue_wait
        series.at.append(now)
        series.value.append(wait_s)
        if len(series.at) >= series.limit:
            series.compact(now)

    # ------------------------------------------------------------------
    def rollup(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant windowed percentiles for node_report."""
        now = self.env.now
        out: Dict[str, Dict[str, Any]] = {}
        for name, w in self._windows.items():
            turn = w.turnaround.window(now)
            wait = w.queue_wait.window(now)
            out[name] = {
                "window_s": WINDOW_S,
                "calls_total": w.calls_total,
                "calls_in_window": len(turn),
                "turnaround_p50_s": percentile(turn, 50),
                "turnaround_p99_s": percentile(turn, 99),
                "queue_wait_p50_s": percentile(wait, 50),
                "queue_wait_p99_s": percentile(wait, 99),
            }
        return out

    def __repr__(self) -> str:
        return f"<SLOMonitor window={WINDOW_S}s tenants={len(self._windows)}>"
