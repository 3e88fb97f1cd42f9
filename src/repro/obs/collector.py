"""Run-scoped collection: attach tracing to runtimes, export afterwards.

The experiment harness creates one :class:`ObsCollector` per batch run
(when asked to) and attaches it to every node runtime before jobs start;
any figure driver can then dump a Chrome trace / metrics file for the
run it just measured without touching runtime internals.

A collector given output paths up front also guards against abnormal
shutdown: it registers an ``atexit`` hook (and doubles as a context
manager) so a run killed mid-way — an unhandled model error, Ctrl-C, a
CI timeout — still flushes whatever events it captured to readable
trace files.  :meth:`flush` is idempotent; a clean exit writes once.
"""

from __future__ import annotations

import atexit
from typing import Any, List, Optional, TYPE_CHECKING

from repro.obs.export import (
    write_chrome_trace,
    write_json_lines,
    write_prometheus,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.runtime import NodeRuntime

__all__ = ["ObsCollector"]


class ObsCollector:
    """Aggregates the tracers and metric registries of attached runtimes."""

    def __init__(
        self,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        events_path: Optional[str] = None,
    ) -> None:
        self.runtimes: List["NodeRuntime"] = []
        self.trace_path = trace_path
        self.metrics_path = metrics_path
        self.events_path = events_path
        self._flushed = False
        self._atexit_registered = False
        if trace_path or metrics_path or events_path:
            atexit.register(self._atexit_flush)
            self._atexit_registered = True

    def attach(self, runtime: "NodeRuntime") -> None:
        """Enable tracing on ``runtime`` and adopt its event/metric state."""
        if runtime in self.runtimes:
            return
        runtime.obs.enabled = True
        self.runtimes.append(runtime)

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[Any]:
        """All attached runtimes' events, merged in clock order."""
        merged: List[Any] = []
        for runtime in self.runtimes:
            merged.extend(runtime.obs.events)
        merged.sort(key=lambda e: e.at)
        return merged

    # ------------------------------------------------------------------
    def write_trace(self, path: str) -> None:
        write_chrome_trace(path, self.events)

    def write_metrics(self, path: str) -> None:
        write_prometheus(path, *[r.metrics for r in self.runtimes])

    def write_events(self, path: str) -> None:
        write_json_lines(path, self.events)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Write every configured output file (idempotent)."""
        if self._flushed:
            return
        self._flushed = True
        if self._atexit_registered:
            atexit.unregister(self._atexit_flush)
            self._atexit_registered = False
        # Both event exports read one merged, sorted list.
        events = self.events if self.trace_path or self.events_path else []
        if self.trace_path:
            write_chrome_trace(self.trace_path, events)
        if self.metrics_path:
            self.write_metrics(self.metrics_path)
        if self.events_path:
            write_json_lines(self.events_path, events)

    def _atexit_flush(self) -> None:
        # Interpreter teardown: never let a flush failure mask the
        # original crash (and half a trace beats no trace).
        try:
            self.flush()
        except Exception:  # pragma: no cover - best-effort guard
            pass

    def __enter__(self) -> "ObsCollector":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()

    def __repr__(self) -> str:
        n_events = sum(len(r.obs) for r in self.runtimes)
        return f"<ObsCollector runtimes={len(self.runtimes)} events={n_events}>"
