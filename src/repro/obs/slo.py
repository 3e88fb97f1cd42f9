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
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Tuple

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


class _Window:
    """One tenant's sliding-window samples."""

    __slots__ = ("turnaround", "queue_wait", "calls_total")

    def __init__(self) -> None:
        #: (at, seconds) samples, oldest first.
        self.turnaround: Deque[Tuple[float, float]] = deque()
        self.queue_wait: Deque[Tuple[float, float]] = deque()
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

    def _prune(self, samples: Deque[Tuple[float, float]], now: float) -> None:
        horizon = now - WINDOW_S
        while samples and samples[0][0] < horizon:
            samples.popleft()

    # ------------------------------------------------------------------
    def observe_call(self, ctx, latency_s: float) -> None:
        """One completed call's turnaround (dispatcher finally-block)."""
        now = self.env.now
        w = self._window(self._tenant_of(ctx))
        w.calls_total += 1
        w.turnaround.append((now, latency_s))
        self._prune(w.turnaround, now)

    def observe_queue_wait(self, ctx, wait_s: float) -> None:
        """One binding's scheduler queue wait (Scheduler.queue_wait_hook)."""
        now = self.env.now
        w = self._window(self._tenant_of(ctx))
        w.queue_wait.append((now, wait_s))
        self._prune(w.queue_wait, now)

    # ------------------------------------------------------------------
    def rollup(self) -> Dict[str, Dict[str, Any]]:
        """Per-tenant windowed percentiles for node_report."""
        now = self.env.now
        out: Dict[str, Dict[str, Any]] = {}
        for name, w in self._windows.items():
            self._prune(w.turnaround, now)
            self._prune(w.queue_wait, now)
            turn = [v for _, v in w.turnaround]
            wait = [v for _, v in w.queue_wait]
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
